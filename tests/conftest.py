import pytest

from enermod import data_path
from enermod.refsim import load_oracle_params
from enermod.sysconfig import load_api, load_isa, parse_config


@pytest.fixture(scope="session")
def config():
    return parse_config("")


@pytest.fixture(scope="session")
def tiny_config():
    """One cluster, one CPU; keeps single-event accounting readable."""
    return parse_config('{"mesh_cols": 1, "mesh_rows": 1, "cpus_per_cluster": 1}')


@pytest.fixture(scope="session")
def mesh3_config():
    return parse_config('{"mesh_cols": 3, "mesh_rows": 3}')


@pytest.fixture(scope="session")
def isa():
    return load_isa(data_path("isa.json"))


@pytest.fixture(scope="session")
def api():
    return load_api(data_path("api.json"))


@pytest.fixture(scope="session")
def params():
    return load_oracle_params(data_path("oracle_params.json"))
