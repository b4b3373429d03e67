"""Campaign orchestration across worker processes."""

import os
import subprocess
import sys
import time

_DYING_WORKER = """
import os
from concurrent.futures.process import BrokenProcessPool

from enermod.benchgen import Microbenchmark
from enermod.pipeline import run_campaign
from enermod import data_path
from enermod.refsim import Program, load_oracle_params
from enermod.sysconfig import parse_config


class ExitsWhenUnpickled:
    def __reduce__(self):
        return os._exit, (3,)


benches = [Microbenchmark(name="idle", program=Program.from_dict({}, min_cycles=4),
                          swept=()),
           Microbenchmark(name="dies", program=ExitsWhenUnpickled(), swept=())]
try:
    params = load_oracle_params(data_path("oracle_params.json"))
    run_campaign(benches, parse_config(""), params, workers=2)
except BrokenProcessPool:
    print("broken")
"""


def test_dying_worker_raises_instead_of_hanging():
    """A worker that exits mid-campaign fails the campaign within seconds."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _DYING_WORKER], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.strip() == "broken", proc.stderr
    assert time.perf_counter() - start < 30
