"""Campaign orchestration across worker processes."""

import os
import subprocess
import sys
import time

from enermod import data_path
from enermod.benchgen import Microbenchmark
from enermod.pipeline import iter_campaign
from enermod.refsim import Program, load_oracle_params, run_program
from enermod.sysconfig import parse_config

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


def _pid_and_duration(config, params, program):
    trace, _ledger = run_program(config, params, program)
    return os.getpid(), trace.duration


def test_iter_campaign_runs_run_in_the_worker_and_keeps_input_order():
    """run is called in a worker process, and its results come back in
    input order, equal to an in-process campaign's."""
    benches = [Microbenchmark(name=f"idle{n}", swept=(),
                              program=Program.from_dict({}, min_cycles=n))
               for n in (5, 1, 4, 2, 6, 3)]
    config = parse_config("")
    params = load_oracle_params(data_path("oracle_params.json"))
    in_process = list(iter_campaign(benches, config, params, _pid_and_duration))
    pooled = list(iter_campaign(benches, config, params, _pid_and_duration,
                                workers=2))
    assert [b for b, _ in pooled] == [b for b, _ in in_process] == benches
    assert [d for _, (_, d) in pooled] == [d for _, (_, d) in in_process] \
        == [5, 1, 4, 2, 6, 3]
    assert {pid for _, (pid, _) in in_process} == {os.getpid()}
    assert os.getpid() not in {pid for _, (pid, _) in pooled}
