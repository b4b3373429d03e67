"""Held-out application generators: validity, determinism, coverage."""

from enermod.refsim import BundleOp, SendOp, run_program
from enermod.workloads import synthetic_applications


def test_five_applications(config, isa):
    apps = synthetic_applications(config, isa)
    assert len(apps) == 5
    assert len({name for name, _ in apps}) == 5


def test_applications_are_valid_and_runnable(config, isa, params):
    for _name, program in synthetic_applications(config, isa):
        _, ledger = run_program(config, params, program)
        assert ledger.total_pj > 0


def test_generation_deterministic(config, isa):
    a = synthetic_applications(config, isa, seed=3)
    b = synthetic_applications(config, isa, seed=3)
    assert a == b
    c = synthetic_applications(config, isa, seed=4)
    assert a != c


def test_applications_mix_positions_patterns_and_comm(config, isa):
    for name, program in synthetic_applications(config, isa):
        bundles = [op for _, ops in program.ops for op in ops
                   if isinstance(op, BundleOp)]
        sends = [op for _, ops in program.ops for op in ops
                 if isinstance(op, SendOp)]
        assert len({op.addr for op in bundles}) > 10, name
        assert len({op.pattern for op in bundles}) >= 2, name
        assert sends, name
        assert all(op.size_bytes % 4 == 0 for op in sends)


def test_applications_span_multiple_cpus(config, isa):
    for name, program in synthetic_applications(config, isa):
        assert len(dict(program.ops)) >= 2, name
