"""End-to-end CLI behavior: artifacts, exit codes, idempotence."""

import argparse
import ast
import contextlib
import copy
import filecmp
import functools
import io
import json
import operator
import os
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enermod import cli, data_path
from enermod.cli import (
    EXIT_DATA,
    EXIT_INTERNAL,
    EXIT_INVARIANT,
    EXIT_MISSING_FILE,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from enermod.estimator import estimate
from enermod.modelfit import EnergyModel, load_model, save_model
from enermod.pipeline import build_simplified_model
from enermod.statetrace import noc_hop_function, noc_pair_function, trace_from_lines


_SHIPPED = {"isa": "isa.json", "api": "api.json", "params": "oracle_params.json"}


def _defaults(out, *inputs):
    """--config and --out, plus each named input option (isa, api, params)
    at its shipped file; pass only the inputs the subcommand takes."""
    args = ["--config", data_path("default_config.json"), "--out", str(out)]
    for name in inputs:
        args += [f"--{name}", data_path(_SHIPPED[name])]
    return args


def _tree_files(root):
    found = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            found[os.path.relpath(path, root)] = path
    return found


_CALIBRATION = ["cal/idle", "cal/baseline", "cal/sync"]


def _manifest_names(out):
    manifest = (out / "benchmarks" / "manifest.csv").read_text()
    return [line.split(",", 1)[0] for line in manifest.splitlines()[1:]]


def test_gen_bench_comm_writes_256_programs(tmp_path):
    rc = main(["gen-bench", "--kind", "comm", "--min", "4", "--max", "1024",
               "--step", "4", "--api", data_path("api.json")]
              + _defaults(tmp_path))
    assert rc == EXIT_OK
    bench_dir = tmp_path / "benchmarks"
    programs = [f for f in os.listdir(bench_dir) if f.endswith(".json")]
    assert len(programs) == 256 + len(_CALIBRATION)
    assert _manifest_names(tmp_path)[:4] == _CALIBRATION + ["comm/h2/4"]


def test_gen_bench_comm_same_cluster_sweeps_the_crossbar(tmp_path):
    rc = main(["gen-bench", "--kind", "comm", "--src", "0,0", "--dst", "0,0",
               "--min", "8", "--max", "32", "--step", "8",
               "--api", data_path("api.json")]
              + _defaults(tmp_path))
    assert rc == EXIT_OK
    bench_dir = tmp_path / "benchmarks"
    assert _manifest_names(tmp_path) == _CALIBRATION + [
        "comm/h0/8", "comm/h0/16", "comm/h0/24", "comm/h0/32"]
    doc = json.loads((bench_dir / "comm__h0__8.json").read_text())
    assert sorted(doc["cpus"]) == ["0", "1"]


def test_gen_bench_comm_same_cluster_one_cpu_exits_4(tmp_path, capsys):
    one_cpu = tmp_path / "one_cpu.json"
    one_cpu.write_text('{"cpus_per_cluster": 1}')
    rc = main(["gen-bench", "--kind", "comm", "--src", "0,0", "--dst", "0,0",
               "--min", "8", "--max", "32", "--step", "8",
               "--api", data_path("api.json"), "--config", str(one_cpu),
               "--isa", data_path("isa.json"), "--out", str(tmp_path)])
    assert rc == EXIT_INVARIANT
    assert "two CPUs" in capsys.readouterr().err
    assert not (tmp_path / "benchmarks" / "manifest.csv").exists()


def test_oracle_missing_params_exits_3_no_artifacts(tmp_path):
    rc = main(["gen-bench", "--kind", "comm", "--min", "8", "--max", "16",
               "--step", "8", "--api", data_path("api.json")]
              + _defaults(tmp_path))
    assert rc == EXIT_OK
    rc = main(["oracle", "--config", data_path("default_config.json"),
               "--isa", data_path("isa.json"),
               "--params", str(tmp_path / "nope.json"),
               "--out", str(tmp_path)])
    assert rc == EXIT_MISSING_FILE
    assert not (tmp_path / "traces").exists()
    assert not (tmp_path / "ledgers").exists()


def test_oracle_unknown_bundle_field_exits_4(tmp_path, capsys):
    """A bundle field the simulator would not honour is refused, not dropped."""
    rc = main(["gen-bench", "--kind", "imem", "--group", "ldw+add",
               "--lo", "0", "--hi", "1", "--reps", "2",
               "--api", data_path("api.json")] + _defaults(tmp_path, "isa"))
    assert rc == EXIT_OK
    program = sorted((tmp_path / "benchmarks").glob("*.json"))[-1]
    doc = json.loads(program.read_text())
    doc["cpus"]["0"][0]["bundle"]["dmem_pattern"] = "ones"
    program.write_text(json.dumps(doc))
    rc = main(["oracle"] + _defaults(tmp_path, "isa", "params"))
    assert rc == EXIT_INVARIANT
    assert "dmem_pattern" in capsys.readouterr().err
    assert not (tmp_path / "traces").exists()


def _one_error_line(capsys, code):
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(f"error:{code}:")
    assert "Traceback" not in err
    return errors[0]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_oracle_stops_at_the_first_invalid_program(tmp_path, capsys, workers):
    """A program that loads but does not fit the configuration stops the
    campaign at its turn: the runs before it keep their files, and no
    results.csv is written."""
    assert main(["gen-bench", "--kind", "imem", "--group", "ldw+add", "--lo", "0",
                 "--hi", "7", "--reps", "2"] + _defaults(tmp_path)) == EXIT_OK
    rows = _manifest_names(tmp_path)
    k = 4
    program = tmp_path / "benchmarks" / cli.benchmark_filename(rows[k])
    doc = json.loads(program.read_text())
    doc["cpus"]["0"][-1]["bundle"]["addr"] = 10**6
    program.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["oracle", "--workers", workers] + _defaults(tmp_path, "isa", "params"))
    assert rc == EXIT_INVARIANT
    assert "imem address 1000000 out of range" in _one_error_line(capsys, EXIT_INVARIANT)
    stems = [cli.benchmark_filename(name)[:-len(".json")] for name in rows[:k]]
    assert sorted(os.listdir(tmp_path / "traces")) == sorted(s + ".tsv" for s in stems)
    assert sorted(os.listdir(tmp_path / "ledgers")) == sorted(s + ".csv" for s in stems)


def test_oracle_non_integer_cpu_key_exits_4(tmp_path, capsys):
    # a cpu key is [0-9]+, the one spelling of a trace cycle
    rc = main(["gen-bench", "--kind", "comm", "--min", "8", "--max", "16",
               "--step", "8", "--api", data_path("api.json")]
              + _defaults(tmp_path))
    assert rc == EXIT_OK
    program = sorted((tmp_path / "benchmarks").glob("*.json"))[0]
    for key in ("x", " 0", "+0", "0_0", "٣", "-0", "0 ", "9" * 5000):
        program.write_text(json.dumps({"cpus": {key: []}}))
        capsys.readouterr()
        rc = main(["oracle"] + _defaults(tmp_path, "isa", "params"))
        assert rc == EXIT_INVARIANT
        assert f"cpu key {key!r}" in _one_error_line(capsys, EXIT_INVARIANT)
        assert not (tmp_path / "traces").exists()


def test_sweep_noc_core_key_without_three_parts_exits_4(tmp_path, capsys):
    with open(data_path("oracle_params.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["core.NOP"] = 1.0
    params = tmp_path / "params.json"
    params.write_text(json.dumps(doc))
    rc = main(["sweep-noc", "--min", "4", "--max", "8", "--step", "4",
               "--params", str(params)] + _defaults(tmp_path))
    assert rc == EXIT_INVARIANT
    assert "core.NOP" in _one_error_line(capsys, EXIT_INVARIANT)


def test_bad_config_exits_4(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"imem_bytes": 1000}')
    rc = main(["sweep-imem", "--config", str(bad),
               "--isa", data_path("isa.json"),
               "--params", data_path("oracle_params.json"),
               "--out", str(tmp_path), "--lo", "0", "--hi", "1"])
    assert rc == EXIT_INVARIANT


def test_unknown_flag_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["oracle", "--frobnicate"])
    assert err.value.code == 2


def test_option_nothing_reads_exits_2(tmp_path, capsys):
    # fit reads the traces and ledgers, never the ISA or the oracle
    # parameters; sweep-noc builds its packets without the ISA
    missing = str(tmp_path / "missing.json")
    for command, option, value in [("fit", "--seed", "1"),
                                   ("fit", "--isa", missing),
                                   ("fit", "--params", missing),
                                   ("sweep-noc", "--isa", missing)]:
        with pytest.raises(SystemExit) as err:
            main([command, option, value] + _defaults(tmp_path))
        assert err.value.code == EXIT_USAGE
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_fit_reads_neither_the_isa_nor_the_oracle_params(tmp_path, monkeypatch):
    assert main(["gen-bench", "--kind", "comm", "--min", "8", "--max", "24",
                 "--step", "8"] + _defaults(tmp_path)) == EXIT_OK
    assert main(["oracle"] + _defaults(tmp_path, "isa", "params")) == EXIT_OK
    fit = ["fit", "--function", "noc-hop", "--name", "noc"] + _defaults(tmp_path)
    assert main(fit) == EXIT_OK
    model = (tmp_path / "models" / "noc.json").read_bytes()

    def refuse(path):
        raise AssertionError(f"fit loaded {path}")

    monkeypatch.setattr(cli, "load_isa", refuse)
    monkeypatch.setattr(cli, "load_oracle_params", refuse)
    assert main(fit) == EXIT_OK
    assert (tmp_path / "models" / "noc.json").read_bytes() == model


def _args_read(functions, name, seen):
    """The args.<dest> names a cli function reads, and those read by the
    cli functions it passes args to."""
    seen.add(name)
    read = set()
    for node in ast.walk(functions[name]):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "args"):
            read.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in functions and node.func.id not in seen
              and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args)):
            read |= _args_read(functions, node.func.id, seen)
    return read


def _subparsers():
    """The parser of each subcommand, by name."""
    [subparsers] = [a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)]
    return subparsers.choices


def test_every_option_is_read_by_its_subcommand():
    with open(cli.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    unread = []
    for command, parser in sorted(_subparsers().items()):
        func = parser.get_default("func").__name__
        read = _args_read(functions, func, set())
        unread.extend(f"{command} {action.option_strings[0]}"
                      for action in parser._actions
                      if action.option_strings and action.dest != "help"
                      and action.dest not in read)
    assert not unread, unread


def test_gen_bench_comm_without_the_isa_exits_3(tmp_path, capsys):
    # the baseline and sync runs start with the ISA's NOP prologue
    missing = str(tmp_path / "missing.json")
    rc = main(["gen-bench", "--kind", "comm", "--min", "8", "--max", "16",
               "--step", "8", "--isa", missing] + _defaults(tmp_path))
    assert rc == EXIT_MISSING_FILE
    assert missing in _one_error_line(capsys, EXIT_MISSING_FILE)
    assert not (tmp_path / "benchmarks").exists()


@pytest.mark.parametrize("route", [["--src", "0,0", "--dst", "1,1"],
                                   ["--src", "0,0", "--dst", "0,0"]])
def test_readme_comm_flow_fits_every_constant(tmp_path, route):
    """gen-bench ships the calibration runs, so a packet sweep alone fits
    at full rank with no negative constant, over the mesh or the crossbar."""
    assert main(["gen-bench", "--kind", "comm", *route, "--min", "4",
                 "--max", "76", "--step", "36", "--reps", "8"]
                + _defaults(tmp_path)) == EXIT_OK
    assert main(["oracle", "--workers", "2"]
                + _defaults(tmp_path, "isa", "params")) == EXIT_OK
    assert main(["fit", "--function", "noc-hop", "--name", "noc"]
                + _defaults(tmp_path)) == EXIT_OK
    report = json.loads((tmp_path / "reports" / "fit_noc.json").read_text())
    assert report["rank"] == report["n_unknowns"]
    assert report["negative_keys"] == []
    assert report["observations"] == 3 + len(_CALIBRATION)


def test_center_window_keeps_the_calibration_runs_first(tmp_path):
    assert main(["gen-bench", "--kind", "comm", "--center-window", "2",
                 "--min", "8", "--max", "64", "--step", "8"]
                + _defaults(tmp_path)) == EXIT_OK
    assert _manifest_names(tmp_path) == _CALIBRATION + ["comm/h2/32", "comm/h2/40"]


_EXPLORE = ["explore", "--graph", data_path("example_graph.json"), "--model", "m.json"]


@pytest.mark.parametrize("command,option", [
    (["gen-bench", "--kind", "comm"], "--center-window"),
    (_EXPLORE, "--chains"),
    (["gen-bench", "--kind", "comm", "--min", "8", "--max", "24", "--step", "8"],
     "--reps"),
    (["gen-bench", "--kind", "instr"], "--reps"),
    (_EXPLORE, "--steps"),
    (["oracle"], "--workers"),
    (["validate"], "--workers")])
@pytest.mark.parametrize("value", ["0", "-1", "-3"])
def test_count_below_1_is_a_usage_error(tmp_path, capsys, command, option, value):
    with pytest.raises(SystemExit) as err:
        main(command + [option, value] + _defaults(tmp_path))
    assert err.value.code == EXIT_USAGE
    assert f"argument {option}" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("option", ["--temp", "--w-energy", "--w-throughput"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
def test_explore_float_option_that_is_not_finite_is_a_usage_error(tmp_path, capsys,
                                                                   option, value):
    with pytest.raises(SystemExit) as err:
        main(_EXPLORE + [f"{option}={value}"] + _defaults(tmp_path))
    assert err.value.code == EXIT_USAGE
    assert f"argument {option}: must be finite" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_explore_temperature_of_0_or_below_is_allowed():
    # a temperature at or below 0 means greedy descent
    for value in ("0", "-1.5"):
        assert cli.build_parser().parse_args(_EXPLORE + ["--temp", value]).temp == float(value)


@pytest.mark.parametrize("value", ["0", "-0.5", "1.5", "nan", "x"])
def test_cooling_outside_0_1_is_a_usage_error(tmp_path, capsys, value):
    with pytest.raises(SystemExit) as err:
        main(_EXPLORE + ["--cooling", value] + _defaults(tmp_path))
    assert err.value.code == EXIT_USAGE
    assert "argument --cooling" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("group", ["nop+nop", "ldw+add"])
def test_gen_bench_imem_fits_every_constant(tmp_path, group):
    """The position sweep ships the idle and baseline runs, so it fits at
    full rank with no negative constant."""
    assert main(["gen-bench", "--kind", "imem", "--group", group, "--lo", "0",
                 "--hi", "31", "--reps", "8"] + _defaults(tmp_path)) == EXIT_OK
    assert _manifest_names(tmp_path)[:2] == ["cal/idle", "cal/baseline"]
    assert main(["oracle"] + _defaults(tmp_path, "isa", "params")) == EXIT_OK
    assert main(["fit", "--function", "instruction-fine", "--name", "imem"]
                + _defaults(tmp_path)) == EXIT_OK
    report = json.loads((tmp_path / "reports" / "fit_imem.json").read_text())
    assert report["rank"] == report["n_unknowns"] > 1
    assert report["negative_keys"] == []
    assert report["observations"] == 2 + 32


def test_gen_bench_size_options_fall_back_to_the_api(tmp_path):
    # the shipped send range is 4..1024 B in 4-byte steps
    for given, sizes in [(["--max", "64", "--step", "20"], [4, 24, 44, 64]),
                         (["--min", "1000"], [1000, 1004, 1008, 1012, 1016, 1020, 1024]),
                         (["--max", "12"], [4, 8, 12])]:
        out = tmp_path / "-".join(given)
        assert main(["gen-bench", "--kind", "comm", *given] + _defaults(out)) == EXIT_OK
        assert _manifest_names(out) == _CALIBRATION + [f"comm/h2/{n}" for n in sizes]


@pytest.mark.parametrize("command", ["gen-bench", "sweep-noc"])
@pytest.mark.parametrize("step", ["0", "-4"])
def test_size_step_below_1_is_a_usage_error(tmp_path, capsys, command, step):
    kind = ["--kind", "comm"] if command == "gen-bench" else []
    with pytest.raises(SystemExit) as err:
        main([command, *kind, "--step", step] + _defaults(tmp_path))
    assert err.value.code == EXIT_USAGE
    assert "argument --step" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("command,inputs", [("gen-bench", ("isa", "api")),
                                            ("sweep-noc", ("params",))])
def test_empty_size_range_exits_2(tmp_path, capsys, command, inputs):
    kind = ["--kind", "comm"] if command == "gen-bench" else []
    out = tmp_path / "out"
    rc = main([command, *kind, "--min", "64", "--max", "8"] + _defaults(out, *inputs))
    assert rc == EXIT_USAGE
    assert "empty size range" in _one_error_line(capsys, EXIT_USAGE)
    assert not out.exists()


_ORACLE_LOSING_A_WORKER = """
import os
import sys

from enermod import cli


class ExitsWhenUnpickled:
    def __reduce__(self):
        return os._exit, (3,)


# every task sent to a worker kills it
cli._oracle_files = ExitsWhenUnpickled()
sys.exit(cli.main(["oracle", "--workers", "2", "--out", sys.argv[1]]))
"""


def test_oracle_losing_a_worker_exits_1_without_a_traceback(tmp_path):
    assert main(["gen-bench", "--kind", "comm", "--min", "8", "--max", "32",
                 "--step", "8", "--api", data_path("api.json")]
                + _defaults(tmp_path)) == EXIT_OK
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _ORACLE_LOSING_A_WORKER,
                           str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_INTERNAL, proc.stderr
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(f"error:{EXIT_INTERNAL}:")


def test_hop_reduction_of_a_model_without_pair_keys_exits_5(tmp_path, capsys):
    assert main(["gen-bench", "--kind", "comm", "--min", "8", "--max", "24",
                 "--step", "8", "--api", data_path("api.json")]
                + _defaults(tmp_path)) == EXIT_OK
    assert main(["oracle"] + _defaults(tmp_path, "isa", "params")) == EXIT_OK
    assert main(["fit", "--function", "active-idle", "--name", "ai"]
                + _defaults(tmp_path)) == EXIT_OK
    reduced = tmp_path / "models" / "ai_hops.json"
    rc = main(["reduce", "--model", str(tmp_path / "models" / "ai.json"),
               "--kind", "hops", "--output", str(reduced)])
    assert rc == EXIT_DATA
    assert "noc-pair" in capsys.readouterr().err
    assert not reduced.exists()


def _campaign_on_file(out):
    """A two-packet campaign's manifest, traces and ledgers."""
    assert main(["gen-bench", "--kind", "comm", "--min", "8", "--max", "16",
                 "--step", "8"] + _defaults(out)) == EXIT_OK
    assert main(["oracle"] + _defaults(out, "isa", "params")) == EXIT_OK


def test_manifest_line_without_a_comma_exits_5(tmp_path, capsys):
    _campaign_on_file(tmp_path)
    manifest = tmp_path / "benchmarks" / "manifest.csv"
    manifest.write_text(manifest.read_text() + "comm/h2/24\n")
    for command in (["oracle"] + _defaults(tmp_path, "isa", "params"),
                    ["fit", "--function", "noc-hop"] + _defaults(tmp_path)):
        capsys.readouterr()
        assert main(command) == EXIT_DATA
        assert "manifest.csv: line 7:" in _one_error_line(capsys, EXIT_DATA)


def _fit_with_ledger_line(out, capsys, line):
    _campaign_on_file(out)
    ledger = out / "ledgers" / "comm__h2__16.csv"
    ledger.write_text(ledger.read_text().replace("total,", line + "\ntotal,"))
    capsys.readouterr()
    assert main(["fit", "--function", "noc-hop"] + _defaults(out)) == EXIT_DATA
    return _one_error_line(capsys, EXIT_DATA)


def test_ledger_energy_that_is_not_a_number_exits_5(tmp_path, capsys):
    error = _fit_with_ledger_line(tmp_path, capsys, "total,abc")
    assert "comm__h2__16.csv: line 11:" in error


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999", "1_000", " 3", "3 ",
                                   "٣", "+3"])
def test_ledger_energy_that_is_not_a_finite_ascii_number_exits_5(tmp_path, capsys, value):
    error = _fit_with_ledger_line(tmp_path, capsys, f"total,{value}")
    assert "comm__h2__16.csv: line 11:" in error


def test_ledger_line_without_a_comma_exits_5(tmp_path, capsys):
    error = _fit_with_ledger_line(tmp_path, capsys, "core")
    assert "comm__h2__16.csv: line 11:" in error


def test_ledger_without_its_total_row_exits_5(tmp_path, capsys):
    _campaign_on_file(tmp_path)
    ledger = tmp_path / "ledgers" / "comm__h2__16.csv"
    ledger.write_text(ledger.read_text().split("total,")[0])
    capsys.readouterr()
    assert main(["fit", "--function", "noc-hop"] + _defaults(tmp_path)) == EXIT_DATA
    assert "comm__h2__16.csv: no total row" in _one_error_line(capsys, EXIT_DATA)


def _pipeline(out, workers=1):
    assert main(["gen-bench", "--kind", "comm", "--min", "8", "--max", "64",
                 "--step", "8", "--api", data_path("api.json")]
                + _defaults(out)) == EXIT_OK
    assert main(["oracle", "--workers", str(workers)]
                + _defaults(out, "isa", "params")) == EXIT_OK
    assert main(["fit", "--function", "noc-hop", "--name", "noc"] + _defaults(out)) == EXIT_OK
    assert main(["reduce", "--model", str(out / "models" / "noc.json"),
                 "--config", data_path("default_config.json"),
                 "--kind", "staircase",
                 "--output", str(out / "models" / "noc_reduced.json")]) == EXIT_OK


def test_pipeline_idempotent_and_worker_independent(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    _pipeline(a, workers=1)
    _pipeline(b, workers=1)
    _pipeline(c, workers=2)
    files_a = _tree_files(a)
    for other in (b, c):
        files_o = _tree_files(other)
        assert sorted(files_a) == sorted(files_o)
        for rel, path in files_a.items():
            assert filecmp.cmp(path, files_o[rel], shallow=False), rel


def test_fit_then_estimate_trace(tmp_path):
    out = tmp_path
    _pipeline(out)
    est_path = out / "estimate.json"
    rc = main(["estimate", "--model", str(out / "models" / "noc.json"),
               "--trace", str(out / "traces" / "comm__h2__16.tsv"),
               "--output", str(est_path)])
    assert rc == EXIT_OK
    doc = json.loads(est_path.read_text())
    assert doc["coverage"] == 1.0
    assert doc["total_pj"] > 0


def _estimate_exits_5(out, capsys, lines):
    """Estimate a trace file of the given lines with the one-packet noc
    model; it must fail with exactly one error:5: line, naming the file and
    then the last line."""
    path = out / "bad.tsv"
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main(["estimate", "--model", str(out / "models" / "noc.json"),
               "--trace", str(path)])
    assert rc == EXIT_DATA
    error = _one_error_line(capsys, EXIT_DATA)
    assert error.startswith(f"error:{EXIT_DATA}:{path}: line {len(lines)}:")


def _one_packet_trace(out):
    """Fit the noc-hop model of a one-packet campaign; return its trace lines."""
    assert main(["gen-bench", "--kind", "comm", "--min", "8", "--max", "8",
                 "--step", "8", "--api", data_path("api.json")]
                + _defaults(out)) == EXIT_OK
    assert main(["oracle"] + _defaults(out, "isa", "params")) == EXIT_OK
    assert main(["fit", "--function", "noc-hop", "--name", "noc"] + _defaults(out)) == EXIT_OK
    return (out / "traces" / "comm__h2__8.tsv").read_text().splitlines()


def test_estimate_of_idle_time_that_cannot_be_a_span_exits_5(tmp_path, capsys):
    lines = _one_packet_trace(tmp_path)
    # an idle CPU's one record, over the whole run
    whole = next(line for line in lines if "\tcpu1\tidle\t" in line)
    start, length, component, _kind, _payload = whole.split("\t")
    start, end = int(start), int(start) + int(length)
    idle = f"\t{component}\tidle\t"
    for bad in (whole + "why=stall",                      # an attribute
                f"{start}\t{idle}", f"{start}\tx{idle}",    # no length; not an integer
                f"{start}\t0{idle}",                        # below 1
                whole,                                      # a duplicate record
                f"{start + 1}\t1{idle}",                    # an overlapping record
                f"{end}\t1{idle}"):                         # an adjacent record
        _estimate_exits_5(tmp_path, capsys, lines + [bad])


def test_estimate_of_a_malformed_trace_line_exits_5(tmp_path, capsys):
    lines = _one_packet_trace(tmp_path)
    digits = "9" * 5000     # more than int() reads
    transfer = next(line for line in lines if "\tni-transfer\t" in line)
    for bad in ("x\tcpu0\tsync\t", "0\tcpu0\tsync\tfoo",    # cycle; payload item
                # a cycle is [0-9]+, not any spelling int() reads
                "1_0\t1\tcpu0\tsync\t", "+3\t1\tcpu0\tsync\t", " 4\t1\tcpu0\tsync\t",
                "٣\t1\tcpu0\tsync\t",
                f"{digits}\t1\tcpu0\tsync\t", f"0\t{digits}\tcpu0\tsync\t",
                transfer.replace("size=8", f"size={digits}"),
                transfer.replace("size=8", f"size=-{digits}")):
        _estimate_exits_5(tmp_path, capsys, [bad])
        _estimate_exits_5(tmp_path, capsys, lines + [bad])


def test_estimate_of_a_trace_that_stops_being_utf8_mid_file_exits_5(tmp_path, capsys):
    """Lines are parsed as they are read, so the bytes that are not UTF-8
    text come after 64 KiB of good lines; the error still names the file."""
    lines = _one_packet_trace(tmp_path)
    busy = "".join(line + "\n" for line in lines if "\tidle\t" not in line)
    good = "".join(line + "\n" for line in lines) + busy * (2 ** 16 // len(busy))
    path = tmp_path / "bad.tsv"
    path.write_bytes(good.encode() + b"\xff\xfe\x7b\n")
    capsys.readouterr()
    rc = main(["estimate", "--model", str(tmp_path / "models" / "noc.json"),
               "--trace", str(path)])
    assert rc == EXIT_DATA
    assert _one_error_line(capsys, EXIT_DATA) == (
        f"error:{EXIT_DATA}:{path}: not UTF-8 text: invalid start byte")


@pytest.fixture(scope="module")
def one_packet(tmp_path_factory):
    out = tmp_path_factory.mktemp("one-packet")
    with contextlib.redirect_stdout(io.StringIO()):
        return out, _one_packet_trace(out)


def _mutate_one_line(lines, how, pick, cycle):
    """A valid trace file with one line made malformed; returns the lines
    and the number of the line the error must name."""
    lines = list(lines)
    idle = [i for i, line in enumerate(lines) if "\tidle\t" in line]
    busy = [i for i, line in enumerate(lines) if "\tidle\t" not in line]
    tails = [line.split("\t", 1)[1] for line in lines]
    # lines whose tail an earlier line already has: the parse is memoized
    repeats = [i for i, tail in enumerate(tails) if tail in tails[:i]]
    at = {"idle payload": idle, "idle length": idle, "attribute": busy,
          "repeated tail": repeats}.get(how, range(len(lines)))
    i = at[pick % len(at)]
    fields = lines[i].split("\t")
    if how == "missing field":
        lines[i] = lines[i].rsplit("\t", 1)[0]
    elif how in ("cycle", "repeated tail"):
        lines[i] = cycle + "\t" + tails[i]
    elif how == "idle payload":
        lines[i] += "why=stall"
    elif how == "idle length":
        fields[1] = ["", "x", "0", "-1", "٣"][pick % 5]
        lines[i] = "\t".join(fields)
    elif how == "attribute":
        lines[i] += "stall" if lines[i].endswith("\t") else " stall"
    elif how == "unknown kind":
        fields[3] = "bogus"
        lines[i] = "\t".join(fields)
    else:   # an idle line that repeats, overlaps or adjoins the record of line j
        records = {k: lines[k].split("\t") for k in idle}
        if how == "overlapping span":
            idle = [k for k in idle if records[k][1] != "1"]
        elif how == "adjacent span":    # the last idle record of its component
            idle = sorted({records[k][2]: k for k in idle}.values())
        j = idle[pick % len(idle)]
        start, length, component, kind, _payload = records[j]
        start, length = int(start), int(length)
        if how == "overlapping span":
            start, length = start + 1, length - 1
        elif how == "adjacent span":
            start, length = start + length, 1
        if i == j:
            i = (i + 1) % len(lines)
        lines[i] = f"{start}\t{length}\t{component}\t{kind}\t"
        i = max(i, j)
    return lines, i + 1


@pytest.mark.parametrize("how", ["missing field", "cycle", "idle payload", "idle length",
                                 "attribute", "second idle", "overlapping span",
                                 "adjacent span", "repeated tail", "unknown kind"])
@settings(max_examples=15, deadline=None)
@given(pick=st.integers(0, 10**6),
       cycle=st.sampled_from(["x", "", "1.5", "0x1", "1e3", "-5",
                              "1_0", "+3", " 4", "٣"]))
def test_estimate_of_a_trace_with_one_malformed_line_exits_5(one_packet, how, pick, cycle):
    out, lines = one_packet
    bad, lineno = _mutate_one_line(lines, how, pick, cycle)
    path = out / "bad.tsv"
    path.write_text("\n".join(bad) + "\n")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(["estimate", "--model", str(out / "models" / "noc.json"),
                   "--trace", str(path)])
    assert rc == EXIT_DATA
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(
        f"error:{EXIT_DATA}:{path}: line {lineno}:")
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("command,option", [
    ("gen-bench", "--src"), ("gen-bench", "--dst"),
    ("sweep-noc", "--src"), ("sweep-noc", "--dst")])
def test_malformed_coordinate_is_a_usage_error(tmp_path, capsys, command, option):
    """A coordinate has one spelling, x,y in ASCII digits."""
    kind = ["--kind", "comm"] if command == "gen-bench" else []
    for value in ("abc", " 1,0", "+1,0", "1_0,0", "1,\u0663"):
        with pytest.raises(SystemExit) as err:
            main([command, *kind, option, value] + _defaults(tmp_path))
        assert err.value.code == EXIT_USAGE, value
        assert f"argument {option}" in capsys.readouterr().err
        assert not os.listdir(tmp_path)


def _integer_options():
    """(subcommand, option) of every option whose type reads 8 as the
    integer 8."""
    found = []
    for command, parser in sorted(_subparsers().items()):
        for action in parser._actions:
            if action.type is None:
                continue
            try:
                value = action.type("8")
            except (ValueError, argparse.ArgumentTypeError):
                continue
            if type(value) is int:
                found.append((command, action.option_strings[0]))
    return found


@pytest.mark.parametrize("command,option", _integer_options())
def test_every_integer_option_takes_one_spelling(capsys, command, option):
    """An integer option is -?[0-9]+ in ASCII digits, the one spelling of a
    trace's integers; other spellings int() reads are usage errors, and so
    is one of more digits than int() reads."""
    required = [arg for action in _subparsers()[command]._actions if action.required
                for arg in (action.option_strings[0], "x")]
    argv = [command, *required, option]
    args = cli.build_parser().parse_args(argv + ["8"])
    assert getattr(args, option[2:].replace("-", "_")) == 8
    for value in ("\u0663", "1_6", " 8", "+8", "9" * 5000):
        with pytest.raises(SystemExit) as err:
            cli.build_parser().parse_args(argv + [value])
        assert err.value.code == EXIT_USAGE, value[:8]
        assert f"argument {option}" in capsys.readouterr().err


@pytest.mark.parametrize("name,field,number,named", [
    ("config", "mesh_cols", "9" * 5000, "more digits than an integer may have"),
    ("params", "sync", "1" + "0" * 400, "parameter 'sync' is past a float's range"),
    ("config", "clock_hz", "1" + "0" * 400, "clock_hz must be a positive number"),
], ids=["mesh_cols-of-5000-digits", "sync-of-1e400", "clock_hz-of-1e400"])
def test_a_json_number_its_reader_cannot_hold_exits_4(tmp_path, name, field, number,
                                                      named):
    """An integer of more digits than int() reads, and an oracle parameter
    or a clock past a float's range, exit 4 on one line that names the
    file, and write nothing."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(_mutated(_shipped(name), (field,), "@"))
                    .replace('"@"', number))
    out = tmp_path / "out"
    rc, error = _run_quietly(["sweep-noc", "--min", "8", "--max", "8", "--out", str(out),
                              f"--{name}", str(path)], (EXIT_INVARIANT,))
    assert rc == EXIT_INVARIANT
    assert error.startswith(f"error:4:{path}: ") and named in error
    assert not out.exists()


def test_fit_with_idle_as_a_paired_kind_exits_5(tmp_path, capsys):
    assert main(["gen-bench", "--kind", "comm", "--min", "8", "--max", "8",
                 "--step", "8", "--api", data_path("api.json")]
                + _defaults(tmp_path)) == EXIT_OK
    rules = tmp_path / "pair_idle.json"
    rules.write_text(json.dumps({
        "rules": [{"match": {}, "emit": "discard"}],
        "pair": {"attr": "group", "template": "trans:{prev}>{cur}",
                 "kinds": ["idle"]}}))
    capsys.readouterr()
    rc = main(["fit", "--function-file", str(rules)] + _defaults(tmp_path))
    assert rc == EXIT_DATA
    assert "idle cannot be a paired kind" in capsys.readouterr().err


def test_sweep_imem_csv(tmp_path):
    rc = main(["sweep-imem", "--lo", "0", "--hi", "15"]
              + _defaults(tmp_path, "isa", "params"))
    assert rc == EXIT_OK
    lines = (tmp_path / "reports" / "sweep_imem.csv").read_text().splitlines()
    assert lines[0] == "address,popcount,compressed_pj,uncompressed_pj"
    assert len(lines) == 17


@pytest.mark.parametrize("lo,hi", [(10, 5), (4094, 4100), (-3, -1)])
def test_sweep_imem_outside_instruction_memory_exits_4(tmp_path, capsys, lo, hi):
    rc = main(["sweep-imem", "--lo", str(lo), "--hi", str(hi)]
              + _defaults(tmp_path, "isa", "params"))
    assert rc == EXIT_INVARIANT
    _one_error_line(capsys, EXIT_INVARIANT)
    assert not (tmp_path / "reports").exists()


def test_a_model_file_with_the_old_level_and_name_fields_estimates_the_same(
        one_packet, tmp_path, capsys):
    """Model files once carried the function's level twice, its name twice
    more and its domain; readers ignore those fields, even a level or a
    domain that is none."""
    out, lines = one_packet
    new = out / "models" / "noc.json"
    doc = json.loads(new.read_text())
    assert not {"level", "function_ref"} & doc.keys()
    assert "domain" not in doc["function"]
    doc.update(level="FINE_GRAINED", function_ref=doc["function"]["name"])
    doc["function"].update(level="NO_SUCH_LEVEL", domain="NO_SUCH_DOMAIN")
    doc["provenance"]["function_name"] = doc["function"]["name"]
    old = tmp_path / "old.json"
    old.write_text(json.dumps(doc))
    trace = tmp_path / "trace.tsv"
    trace.write_text("\n".join(lines) + "\n")
    printed = []
    for model in (new, old):
        capsys.readouterr()
        assert main(["estimate", "--model", str(model), "--trace", str(trace)]) == EXIT_OK
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1] != ""


def test_sweep_noc_within_a_cluster_takes_the_crossbar(tmp_path):
    rc = main(["sweep-noc", "--src", "0,0", "--dst", "0,0", "--min", "8",
               "--max", "32", "--step", "8"] + _defaults(tmp_path, "params"))
    assert rc == EXIT_OK
    lines = (tmp_path / "reports" / "sweep_noc.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
    assert len(rows) == 4
    assert all(r["router_pj"] == 0.0 and r["bus_pj"] > 0.0 for r in rows)


def test_sweep_noc_within_a_cluster_of_one_cpu_exits_4(tmp_path, capsys):
    one_cpu = tmp_path / "one_cpu.json"
    one_cpu.write_text('{"cpus_per_cluster": 1}')
    capsys.readouterr()
    rc = main(["sweep-noc", "--src", "0,0", "--dst", "0,0",
               "--params", data_path("oracle_params.json"),
               "--config", str(one_cpu), "--out", str(tmp_path)])
    assert rc == EXIT_INVARIANT
    assert "two CPUs" in _one_error_line(capsys, EXIT_INVARIANT)
    assert not (tmp_path / "reports").exists()


def test_sweep_noc_csv(tmp_path):
    rc = main(["sweep-noc", "--min", "4", "--max", "64", "--step", "4"]
              + _defaults(tmp_path, "params"))
    assert rc == EXIT_OK
    lines = (tmp_path / "reports" / "sweep_noc.csv").read_text().splitlines()
    assert len(lines) == 17
    header = lines[0].split(",")
    assert "total_pj" in header and "router_pj" in header


def test_validate_writes_summary(tmp_path):
    rc = main(["validate"] + _defaults(tmp_path, "isa", "api", "params"))
    assert rc == EXIT_OK
    summary = json.loads(
        (tmp_path / "reports" / "validation_summary.json").read_text())
    assert "mean_rel_error" in summary
    assert summary["mean_rel_error"] <= 0.05
    assert (tmp_path / "reports" / "validation.csv").exists()
    assert (tmp_path / "models" / "simplified.json").exists()


def test_explore_runs(tmp_path):
    rc = main(["validate"] + _defaults(tmp_path, "isa", "api", "params"))
    assert rc == EXIT_OK
    # validating again against the stored model reproduces the summary
    rc = main(["validate", "--api", data_path("api.json"),
               "--model", str(tmp_path / "models" / "simplified.json")]
              + _defaults(tmp_path, "isa", "api", "params"))
    assert rc == EXIT_OK
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({
        "actors": [{"id": "a", "work": {"group:add+add/pat:zeros": 20}},
                   {"id": "b", "work": {"group:vadd+vmul/pat:zeros": 30}}],
        "channels": [{"src": "a", "dst": "b", "bytes": 128}]}))
    rc = main(["explore", "--graph", str(graph),
               "--model", str(tmp_path / "models" / "simplified.json"),
               "--config", data_path("default_config.json"),
               "--out", str(tmp_path), "--steps", "500", "--chains", "2"])
    assert rc == EXIT_OK
    doc = json.loads((tmp_path / "models" / "partition.json").read_text())
    assert doc["score"]["feasible"]
    assert (tmp_path / "reports" / "explore_history.csv").exists()


@pytest.fixture(scope="module")
def explore_model(tmp_path_factory, config, isa, api, params):
    model, _reports = build_simplified_model(config, isa, api, params, reps=8)
    path = tmp_path_factory.mktemp("explore") / "model.json"
    save_model(model, str(path))
    return path


def test_cooling_of_1_holds_the_temperature(explore_model, tmp_path):
    assert main(["explore", "--graph", data_path("example_graph.json"),
                 "--model", str(explore_model), "--steps", "3", "--chains", "1",
                 "--cooling", "1"] + _defaults(tmp_path)) == EXIT_OK
    history = (tmp_path / "reports" / "explore_history.csv").read_text().splitlines()
    assert [line.split(",")[1] for line in history[1:]] == ["500.0"] * 3


with open(data_path("example_graph.json"), encoding="utf-8") as _fh:
    _GRAPH = json.load(_fh)


def _json_fields(doc):
    """The path of every field of a JSON document, the document first."""
    yield ()
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from ((key, *path) for path in _json_fields(value))


_MUTATIONS = st.sampled_from(["x", "", 1.5, -1, 0, True, None, [1], [], {"a": 1}, {}])


def _mutated(doc, path, value):
    """A copy of doc with the field at path replaced by value."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return doc


def _run_quietly(argv, codes):
    """Run the CLI and return its exit code, which must be 0 or one of
    codes, and its error line: it prints exactly one error:<code>: line and
    no traceback unless it succeeds."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert rc in (EXIT_OK, *codes)
    assert len(errors) == (rc != EXIT_OK)
    assert all(line.startswith(f"error:{rc}:") for line in errors)
    assert "Traceback" not in err.getvalue()
    return rc, "".join(errors)


@settings(max_examples=120, deadline=None)
@given(path=st.sampled_from(list(_json_fields(_GRAPH))), value=_MUTATIONS)
def test_explore_of_a_graph_with_one_mutated_field_never_crashes(explore_model, path,
                                                                  value):
    out = explore_model.parent / "mutated"
    out.mkdir(exist_ok=True)
    (out / "graph.json").write_text(json.dumps(_mutated(_GRAPH, path, value)))
    _run_quietly(["explore", "--graph", str(out / "graph.json"),
                  "--model", str(explore_model), "--out", str(out),
                  "--config", data_path("default_config.json"),
                  "--steps", "20", "--chains", "1"], (EXIT_INVARIANT, EXIT_DATA))


# every field a rule file can hold: name, rules, pair, then
_RULE_FILE = {
    "name": "bundle-pairs",
    "rules": [{"match": {"kind": ["sync", "ni-transfer"]}, "emit": "{kind}"},
              {"match": {}, "emit": "discard"}],
    "pair": {"attr": "group", "template": "trans:{prev}>{cur}",
             "kinds": ["bundle-issue"]},
    "then": {"rules": [{"match": {}, "emit": "{key}"}]},
}


@pytest.fixture(scope="module")
def packet_campaign(tmp_path_factory):
    """A two-size packet campaign with its traces, and a staircase-reduced
    noc-hop model of it."""
    out = tmp_path_factory.mktemp("packet-campaign")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen-bench", "--kind", "comm", "--min", "8", "--max", "16",
                     "--step", "8", "--reps", "2"] + _defaults(out)) == EXIT_OK
        assert main(["oracle"] + _defaults(out, "isa", "params")) == EXIT_OK
        assert main(["fit", "--function", "noc-hop", "--name", "noc"]
                    + _defaults(out)) == EXIT_OK
        assert main(["reduce", "--model", str(out / "models" / "noc.json"),
                     "--output", str(out / "reduced.json")]) == EXIT_OK
    return out


def test_reduce_takes_the_clock_of_its_config(packet_campaign):
    """A model file's static power is its static pJ per cycle at the clock
    in its provenance; reduce sets that clock from --config."""
    fitted = json.loads((packet_campaign / "models" / "noc.json").read_text())
    assert fitted["provenance"]["clock_hz"] == 7.0e8
    config = packet_campaign / "slow.json"
    config.write_text(json.dumps({"clock_hz": 2.5e8}))
    out = packet_campaign / "slow_reduced.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["reduce", "--model", str(packet_campaign / "models" / "noc.json"),
                     "--config", str(config), "--output", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["provenance"]["clock_hz"] == 2.5e8
    assert doc["static_power_pw"] == doc["static_pj_per_cycle"] * 2.5e8
    assert doc["static_pj_per_cycle"] == fitted["static_pj_per_cycle"]


def test_the_rule_file_fits(packet_campaign):
    (packet_campaign / "rules.json").write_text(json.dumps(_RULE_FILE))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fit", "--function-file", str(packet_campaign / "rules.json"),
                     "--name", "pairs"] + _defaults(packet_campaign)) == EXIT_OK
    model = json.loads((packet_campaign / "models" / "pairs.json").read_text())
    assert "trans:nop+nop>nop+nop" in model["constants"]


@settings(max_examples=150, deadline=None)
@given(path=st.sampled_from(list(_json_fields(_RULE_FILE))),
       value=_MUTATIONS | st.sampled_from(["{", "}", "{kind.x}", "{size[0]}", "{kind!z}"]))
def test_fit_with_one_mutated_rule_file_field_never_crashes(packet_campaign, path,
                                                            value):
    rules = packet_campaign / "mutated_rules.json"
    rules.write_text(json.dumps(_mutated(_RULE_FILE, path, value)))
    _run_quietly(["fit", "--function-file", str(rules), "--name", "mutated"]
                 + _defaults(packet_campaign), (EXIT_DATA,))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_estimate_with_one_mutated_model_field_never_crashes(packet_campaign, data):
    model = json.loads((packet_campaign / "reduced.json").read_text())
    path = data.draw(st.sampled_from(list(_json_fields(model))))
    mutated = packet_campaign / "mutated_model.json"
    mutated.write_text(json.dumps(_mutated(model, path, data.draw(_MUTATIONS))))
    _run_quietly(["estimate", "--model", str(mutated),
                  "--trace", str(packet_campaign / "traces" / "comm__h2__16.tsv")],
                 (EXIT_DATA,))


_HOPS_RULES = {"match": [{"match": {"hops": 2}, "emit": "two"},
                         {"match": {}, "emit": "discard"}],
               "template": [{"match": {"kind": "ni-transfer"}, "emit": "hops:{hops}"},
                            {"match": {}, "emit": "discard"}]}


@pytest.mark.parametrize("src", ["x", "1,2,3"])
def test_a_transfer_whose_source_is_not_a_coordinate_has_no_hops(packet_campaign,
                                                                  tmp_path, src):
    """A record has hops only where src and dst both parse as mesh
    coordinates.  Fitting or estimating a trace with a transfer from src,
    a rule that matches on hops falls through it, and a template that reads
    hops exits 5; neither prints a traceback."""
    out = tmp_path / "campaign"
    shutil.copytree(packet_campaign, out)
    for name, rules in _HOPS_RULES.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(rules))
        _run_quietly(["fit", "--function-file", str(tmp_path / f"{name}.json"),
                      "--name", name] + _defaults(out), ())
    trace = out / "traces" / "comm__h2__16.tsv"
    lines = trace.read_text().splitlines()
    trace.write_text("".join(
        (line.replace("src=0,0", f"src={src}") if "\tni-transfer\t" in line else line)
        + "\n" for line in lines))
    assert f"src={src}" in trace.read_text()
    for name, code in (("match", EXIT_OK), ("template", EXIT_DATA)):
        for argv in (["fit", "--function-file", str(tmp_path / f"{name}.json"),
                      "--name", name + "-again"] + _defaults(out),
                     ["estimate", "--model", str(out / "models" / f"{name}.json"),
                      "--trace", str(trace)]):
            rc, error = _run_quietly(argv, (EXIT_DATA,))
            assert rc == code, argv
            assert code == EXIT_OK or "needs field 'hops'" in error


@pytest.mark.parametrize("size", ["abc", "nan", "inf", "1_6", "+16", "٣"])
def test_estimate_of_a_reducer_variable_that_is_not_a_finite_number_exits_5(
        packet_campaign, tmp_path, size):
    """A linear reducer prices a packet from its key's size; a size that is
    not -?[0-9]+, the one spelling of an integer, exits 5 naming the key,
    and prints no NaN."""
    linear = tmp_path / "linear.json"
    _run_quietly(["reduce", "--kind", "linear", "--output", str(linear),
                  "--model", str(packet_campaign / "models" / "noc.json")], ())
    trace = tmp_path / "trace.tsv"
    lines = (packet_campaign / "traces" / "comm__h2__16.tsv").read_text().splitlines()
    trace.write_text("".join(line.replace("size=16", f"size={size}") + "\n"
                             for line in lines))
    rc, error = _run_quietly(["estimate", "--model", str(linear), "--trace", str(trace)],
                             (EXIT_DATA,))
    assert rc == EXIT_DATA
    assert f"key 'noc/hops:2/size:{size}'" in error


@pytest.mark.parametrize("kind,key", [
    ("hops", "noc/src:x/dst:1,1/size:8"), ("hops", "noc/src:+1,0/dst:1,1/size:8"),
    *((kind, f"noc/hops:1/size:{size}") for kind in ("staircase", "linear")
      for size in ("abc", "nan", "inf", "1_6", "+16", "٣")),
    *(pytest.param(kind, f"noc/hops:1/size:{'9' * 5000}", id=f"{kind}-5000-digits")
      for kind in ("staircase", "linear"))])
def test_reduce_of_a_key_that_does_not_parse_exits_5(tmp_path, kind, key):
    """A pair key's endpoints must be coordinates, and a packet size
    -?[0-9]+ of no more digits than int() reads: reduce exits 5 naming the
    key and writes nothing."""
    function = noc_pair_function() if kind == "hops" else noc_hop_function()
    constants = {key: 1.0} if kind == "hops" else {"noc/hops:1/size:16": 1.0, key: 2.0}
    save_model(EnergyModel(function=function, constants=constants), str(tmp_path / "m.json"))
    rc, error = _run_quietly(["reduce", "--model", str(tmp_path / "m.json"), "--kind", kind,
                              "--output", str(tmp_path / "out.json")], (EXIT_DATA,))
    assert rc == EXIT_DATA
    assert f"key {key!r}" in error
    assert not (tmp_path / "out.json").exists()


# a pair-keyed rule file whose bundle keys no builtin emits
_BUNDLE_PAIR_RULES = {"name": "bundle-pair", "rules": [
    {"match": {"kind": "bundle-issue"}, "emit": "bundle/{group}"},
    {"match": {"kind": "sync"}, "emit": "sync"},
    {"match": {"kind": "ni-transfer"}, "emit": "noc/src:{src}/dst:{dst}/size:{size}"},
    {"match": {}, "emit": "discard"}]}


@pytest.fixture(scope="module")
def pair_campaign(tmp_path_factory):
    """A four-size packet campaign with a noc-pair fit (pair.json) and a fit
    of _BUNDLE_PAIR_RULES (bundle-pair.json)."""
    out = tmp_path_factory.mktemp("pair-campaign")
    rules = out / "bundle-pair-rules.json"
    rules.write_text(json.dumps(_BUNDLE_PAIR_RULES))
    for argv in (["gen-bench", "--kind", "comm", "--min", "8", "--max", "32",
                  "--step", "8"] + _defaults(out),
                 ["oracle"] + _defaults(out, "isa", "params"),
                 ["fit", "--function", "noc-pair", "--name", "pair"] + _defaults(out),
                 ["fit", "--function-file", str(rules), "--name", "bundle-pair"]
                 + _defaults(out)):
        _run_quietly(argv, ())
    return out


def _reduce(model, kind, output):
    _run_quietly(["reduce", "--model", str(model), "--kind", kind,
                  "--output", str(output)], ())
    return output


def _estimates(out, model):
    """Each campaign trace's estimate under the model file."""
    fitted = load_model(str(model))
    return [estimate(trace_from_lines(path.read_text().splitlines()), fitted)
            for path in sorted((out / "traces").glob("*.tsv"))]


def _assert_priced_alike(out, model, reference):
    """The model prices every campaign trace as the reference does, within
    1e-9 relative, and covers every key."""
    got, want = _estimates(out, model), _estimates(out, reference)
    assert len(got) == len(want) > 3
    for g, w in zip(got, want):
        assert (g.coverage, g.missing_keys) == (1.0, [])
        assert abs(g.total_pj - w.total_pj) <= 1e-9 * max(1.0, abs(w.total_pj))


def test_a_hop_reduction_keeps_the_keys_of_its_model_function(pair_campaign, tmp_path):
    """--kind hops composes its hop stage onto the fit's own function, so a
    rule-file model keeps its bundle keys and prices every run as before."""
    model = pair_campaign / "models" / "bundle-pair.json"
    reduced = _reduce(model, "hops", tmp_path / "hops.json")
    _assert_priced_alike(pair_campaign, reduced, model)
    assert json.loads(reduced.read_text())["function"]["name"] == "hops*bundle-pair"
    assert any(key.startswith("bundle/") for key in load_model(str(reduced)).constants)


@pytest.mark.parametrize("kind", ["staircase", "linear"])
def test_packet_reducers_leave_the_pair_constants_of_a_pair_model(pair_campaign, tmp_path,
                                                                  kind):
    """A pair key has hops too, but is no key of a hop family: a packet
    reduction of a pair model keeps its constants and its estimates."""
    pair = pair_campaign / "models" / "pair.json"
    reduced = _reduce(pair, kind, tmp_path / f"{kind}.json")
    assert load_model(str(reduced)).reducers == []
    assert load_model(str(reduced)).constants == load_model(str(pair)).constants
    assert ([e.total_pj for e in _estimates(pair_campaign, reduced)]
            == [e.total_pj for e in _estimates(pair_campaign, pair)])


def test_pair_then_hops_then_staircase_prices_as_the_pair_model(pair_campaign, tmp_path):
    """Staircase reducers fitted on a hop-reduced pair model price the
    reduced model's hop keys, which its then stage emits."""
    pair = pair_campaign / "models" / "pair.json"
    hops = _reduce(pair, "hops", tmp_path / "hops.json")
    stair = _reduce(hops, "staircase", tmp_path / "stair.json")
    assert load_model(str(stair)).reducers
    _assert_priced_alike(pair_campaign, stair, pair)


# one program that holds every op kind, a null slot and min_cycles
_PROGRAM = {"min_cycles": 40, "cpus": {
    "0": [{"sync": {}},
          {"bundle": {"slots": ["ldw", "add"], "addr": 3, "pattern": "ones"}},
          {"bundle": {"slots": ["nop", None], "addr": 4, "pattern": "zeros"}},
          {"send": {"dst": 5, "size": 16}}],
    "5": [{"recv": {"src": 0, "size": 16}}]}}


def _delete(doc, path):
    """A copy of doc without the field at path."""
    doc = copy.deepcopy(doc)
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    del parent[path[-1]]
    return doc


@pytest.fixture(scope="module")
def one_program(tmp_path_factory):
    """An outdir whose campaign is the one program prog.json."""
    out = tmp_path_factory.mktemp("one-program")
    (out / "benchmarks").mkdir()
    (out / "benchmarks" / "manifest.csv").write_text(
        "name,swept,program_file\nprog,\"{}\",prog.json\n")
    return out


def _oracle_of_program(out, doc):
    """_run_quietly of oracle on a campaign of the one program doc; an exit
    other than 0 must leave no trace or ledger file."""
    for name in ("traces", "ledgers"):
        shutil.rmtree(out / name, ignore_errors=True)
    (out / "benchmarks" / "prog.json").write_text(json.dumps(doc))
    rc, error = _run_quietly(["oracle"] + _defaults(out, "isa", "params"),
                             (EXIT_INVARIANT,))
    written = {**_tree_files(out / "traces"), **_tree_files(out / "ledgers")}
    assert sorted(written) == ([] if rc else ["prog.csv", "prog.tsv", "results.csv"])
    return rc, error


def test_the_program_with_every_op_kind_runs(one_program):
    assert _oracle_of_program(one_program, _PROGRAM) == (EXIT_OK, "")
    results = (one_program / "ledgers" / "results.csv").read_text()
    assert results.splitlines()[1].endswith(",40")


@pytest.mark.parametrize("doc,named", [
    (_mutated(_PROGRAM, ("cpus", "0", 1, "bundle", "addr"), "x"),
     "cpus.0[1].bundle.addr must be an integer, got 'x'"),
    (_delete(_PROGRAM, ("cpus", "0", 1, "bundle", "addr")), "cpus.0[1].bundle.addr is missing"),
    (_mutated(_PROGRAM, ("cpus", "0", 1, "bundle", "slots"), 5),
     "cpus.0[1].bundle.slots must be a list, got 5"),
    (_mutated(_PROGRAM, ("cpus", "0", 1, "bundle", "slots", 0), [1]),
     "cpus.0[1].bundle.slots must list mnemonics or nulls"),
    (_mutated(_PROGRAM, ("cpus", "0", 3, "send", "size"), True),
     "cpus.0[3].send.size must be an integer, got True"),
    (_mutated(_PROGRAM, ("cpus",), [1]), "cpus must be an object, got [1]"),
    (_mutated(_PROGRAM, ("cpus", "0", 0), 5), "cpus.0[0] must be an object, got 5"),
    ([1], "a program must be an object, got [1]"),
    (_mutated(_PROGRAM, ("min_cycles",), "x"), "min_cycles must be an integer, got 'x'"),
    (_mutated(_PROGRAM, ("min_cycles",), 1.5), "min_cycles must be an integer, got 1.5"),
], ids=lambda x: x if isinstance(x, str) else "program")
def test_oracle_of_a_wrong_typed_program_field_exits_4(one_program, doc, named):
    rc, error = _oracle_of_program(one_program, doc)
    assert rc == EXIT_INVARIANT and f"prog.json: {named}" in error


@settings(max_examples=150, deadline=None)
@given(path=st.sampled_from(list(_json_fields(_PROGRAM))), value=_MUTATIONS)
def test_oracle_of_a_program_with_one_mutated_field_never_crashes(one_program, path,
                                                                  value):
    _oracle_of_program(one_program, _mutated(_PROGRAM, path, value))


def _shipped(name):
    """The shipped document of an input format (isa, api, params, config)."""
    with open(data_path(_SHIPPED.get(name, "default_config.json")), encoding="utf-8") as fh:
        return json.load(fh)


# a cheap subcommand that reads each input format, with its input options
_READS = {
    "isa": (["sweep-imem", "--lo", "0", "--hi", "1"], ("isa", "params")),
    "config": (["sweep-imem", "--lo", "0", "--hi", "1"], ("isa", "params")),
    "params": (["sweep-imem", "--lo", "0", "--hi", "1"], ("isa", "params")),
    "api": (["gen-bench", "--kind", "comm", "--center-window", "1", "--reps", "1"],
            ("isa", "api")),
}


def _run_with_input(out, name, doc):
    """_run_quietly of the subcommand that reads the input format name, on
    doc; it exits 0, or 4 with one error line."""
    path = out / f"{name}.json"
    path.write_text(json.dumps(doc))
    command, inputs = _READS[name]
    return _run_quietly(command + _defaults(out, *inputs) + [f"--{name}", str(path)],
                        (EXIT_INVARIANT,))


@pytest.mark.parametrize("name,path,value,named", [
    ("isa", (0, "allowed_slots"), 5, "isa[0].allowed_slots must be a list, got 5"),
    ("isa", (0, "allowed_slots"), ["a"], "isa[0].allowed_slots must list integers"),
    ("isa", (1, "mnemonic"), 5, "isa[1].mnemonic must be a string, got 5"),
    ("isa", (1,), "x", "isa[1] must be an object, got 'x'"),
    ("isa", (14, "reads_dmem"), "no", "isa[14].reads_dmem must be a boolean, got 'no'"),
    ("isa", (1, "mnemonic"), None, "isa[1].mnemonic must be a string, got None"),
    ("api", (1, "params", "min"), "x", "api[1].params.min must be an integer, got 'x'"),
    ("api", (1,), "x", "api[1] must be an object, got 'x'"),
    ("api", (1, "params", "step"), True, "api[1].params.step must be an integer, got True"),
    ("config", ("clock_hz",), "x", "clock_hz must be a positive number, got 'x'"),
    ("config", ("clock_hz",), None, "clock_hz must be a positive number, got None"),
    ("config", ("clock_hz",), True, "clock_hz must be a positive number, got True"),
    ("params", (), [1], "an oracle-params document must be an object, got [1]"),
])
def test_a_wrong_typed_input_field_exits_4(tmp_path, name, path, value, named):
    rc, error = _run_with_input(tmp_path, name, _mutated(_shipped(name), path, value))
    assert rc == EXIT_INVARIANT and named in error


@pytest.mark.parametrize("name,path,named", [
    ("isa", (3, "mnemonic"), "isa[3].mnemonic is missing"),
    ("api", (1, "params", "min"), "api[1].params.min is missing"),
])
def test_a_missing_input_field_exits_4(tmp_path, name, path, named):
    rc, error = _run_with_input(tmp_path, name, _delete(_shipped(name), path))
    assert rc == EXIT_INVARIANT and named in error


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("inputs")


@pytest.mark.parametrize("name", sorted(_READS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_an_input_file_with_one_mutated_field_never_crashes(input_dir, name, data):
    doc = _shipped(name)
    path = data.draw(st.sampled_from(list(_json_fields(doc))))
    _run_with_input(input_dir, name, _mutated(doc, path, data.draw(_MUTATIONS)))


# every input file a subcommand reads, at its place in the one_size outdir,
# with the exit code of its format: an option's dest, or the kind of file
# the subcommand finds through the outdir
_INPUT_FILES = {
    "config": ("config.json", EXIT_INVARIANT), "isa": ("isa.json", EXIT_INVARIANT),
    "api": ("api.json", EXIT_INVARIANT), "params": ("params.json", EXIT_INVARIANT),
    "graph": ("graph.json", EXIT_INVARIANT),
    "program": ("benchmarks/comm__h2__8.json", EXIT_INVARIANT),
    "model": ("models/noc.json", EXIT_DATA), "function_file": ("rules.json", EXIT_DATA),
    "trace": ("traces/comm__h2__8.tsv", EXIT_DATA),
    "ledger": ("ledgers/comm__h2__8.csv", EXIT_DATA),
    "manifest": ("benchmarks/manifest.csv", EXIT_DATA),
    "report": ("reports/fit_noc.json", EXIT_DATA),
}
_FOUND_IN_OUTDIR = {"oracle": ("manifest", "program"),
                    "fit": ("manifest", "trace", "ledger"), "report": ("report",)}
# options that keep each subcommand's run small
_SMALL_RUN = {
    "gen-bench": ["--kind", "comm", "--center-window", "1", "--reps", "1"],
    "explore": ["--steps", "1", "--chains", "1"],
    "sweep-noc": ["--min", "8", "--max", "8"], "sweep-imem": ["--lo", "0", "--hi", "0"],
}
_INPUT_PAIRS = (
    [(command, action.dest) for command, parser in sorted(_subparsers().items())
     for action in parser._actions if action.dest in _INPUT_FILES]
    + [(command, name) for command, names in sorted(_FOUND_IN_OUTDIR.items())
       for name in names])


@pytest.fixture(scope="module")
def one_size(tmp_path_factory):
    """An outdir with a one-packet campaign, its traces, ledgers and noc-hop
    model, and a copy of every input file the subcommands take."""
    out = tmp_path_factory.mktemp("one-size")
    for name, shipped in (("config", "default_config.json"), ("isa", "isa.json"),
                          ("api", "api.json"), ("params", "oracle_params.json"),
                          ("graph", "example_graph.json")):
        shutil.copy(data_path(shipped), out / _INPUT_FILES[name][0])
    (out / "rules.json").write_text('[{"match": {}, "emit": "{kind}"}]')
    inputs = ["--out", str(out), "--config", str(out / "config.json")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen-bench", "--kind", "comm", "--min", "8", "--max", "8",
                     "--reps", "1", "--isa", str(out / "isa.json")] + inputs) == EXIT_OK
        assert main(["oracle", "--isa", str(out / "isa.json"),
                     "--params", str(out / "params.json")] + inputs) == EXIT_OK
        assert main(["fit", "--function", "noc-hop", "--name", "noc"] + inputs) == EXIT_OK
    return out


def _run_on_one_size(one_size, tmp_path, command):
    """A copy of the one_size outdir, and the argv of a small run of
    command on it that reads every input file from there."""
    out = tmp_path / "out"
    shutil.copytree(one_size, out)
    argv = [command] + _SMALL_RUN.get(command, [])
    for action in _subparsers()[command]._actions:
        if action.dest in _INPUT_FILES:
            argv += [action.option_strings[0], str(out / _INPUT_FILES[action.dest][0])]
        elif action.dest == "out":
            argv += ["--out", str(out)]
        elif action.dest == "output" and action.required:
            argv += ["--output", str(out / "reduced.json")]
    return out, argv


@pytest.mark.parametrize("case", ["{", "not utf-8", "directory", "missing"])
@pytest.mark.parametrize("command,name", _INPUT_PAIRS,
                         ids=[f"{command}-{name}" for command, name in _INPUT_PAIRS])
def test_every_input_file_error_is_one_line_naming_the_file(one_size, tmp_path,
                                                            command, name, case):
    """A file holding "{", or bytes that are not UTF-8 text, exits with its
    format's code, and a directory in its place exits 3, on one line that
    starts with the file's path; a missing file exits 3 with the
    missing-file line."""
    out, argv = _run_on_one_size(one_size, tmp_path, command)
    path = out / _INPUT_FILES[name][0]
    path.unlink()
    if case == "{":
        path.write_text("{")
    elif case == "not utf-8":
        path.write_bytes(b"\xff\xfe\x7b")
    elif case == "directory":
        path.mkdir()
    elif name == "report":
        path.symlink_to(out / "nowhere.json")   # report finds its files by listing
    rc, error = _run_quietly(argv, (EXIT_MISSING_FILE, EXIT_INVARIANT, EXIT_DATA))
    if case == "missing":
        assert (rc, error) == (EXIT_MISSING_FILE, f"error:3:missing file: {path}")
    else:
        code = EXIT_MISSING_FILE if case == "directory" else _INPUT_FILES[name][1]
        assert rc == code and error.startswith(f"error:{code}:{path}: ")


_JSON_PAIRS = [(command, name) for command, name in _INPUT_PAIRS
               if _INPUT_FILES[name][0].endswith(".json")]


@pytest.mark.parametrize("command,name", _JSON_PAIRS,
                         ids=[f"{command}-{name}" for command, name in _JSON_PAIRS])
def test_a_json_input_holding_a_non_finite_number_exits_with_its_format_code(
        one_size, tmp_path, command, name):
    """NaN, Infinity, -Infinity or 1e999 in place of a JSON file's first
    number (the rule file, which has none, gains a match on it) exits with
    the format's code, on one line that names the file and the number."""
    out, argv = _run_on_one_size(one_size, tmp_path, command)
    path = out / _INPUT_FILES[name][0]
    doc = json.loads(path.read_text())
    at = next((p for p in _json_fields(doc)
               if type(functools.reduce(operator.getitem, p, doc)) in (int, float)),
              (0, "match", "size"))
    for number in ("NaN", "Infinity", "-Infinity", "1e999"):
        path.write_text(json.dumps(_mutated(doc, at, "@")).replace('"@"', number))
        rc, error = _run_quietly(argv, (EXIT_INVARIANT, EXIT_DATA))
        code = _INPUT_FILES[name][1]
        assert rc == code
        assert error == f"error:{code}:{path}: number {number} is not finite"


def _write_results_that_are_not_finite(out, explore_model, case):
    """Rewrite the inputs of a one_size outdir so that case's result is not
    finite, though every input number is."""
    path = out / "models" / "noc.json"
    if case == "reduce-hops":
        # two pairs of one hop count whose mean overflows
        save_model(EnergyModel(function=noc_pair_function(), constants=dict.fromkeys(
            ["noc/src:0,0/dst:1,0/size:8", "noc/src:1,0/dst:0,0/size:8"], 1.7e308)),
            str(path))
    elif case.startswith("reduce-"):
        # a size sweep that falls by 3.4e308 pJ past 512 bytes
        save_model(EnergyModel(function=noc_hop_function(), constants={
            f"noc/hops:2/size:{size}": 1.7e308 if size <= 512 else -1.7e308
            for size in range(8, 1025, 8)}), str(path))
    elif case == "fit":
        for i, ledger in enumerate(sorted((out / "ledgers").glob("*.csv"))):
            lines = ledger.read_text().splitlines()
            lines[-1] = f"total,{(-1) ** i * 1.7e308!r}"
            ledger.write_text("\n".join(lines) + "\n")
    else:
        doc = json.loads(explore_model.read_text())
        doc["constants"] = dict.fromkeys(doc["constants"], 1e308)
        doc["static_pj_per_cycle"], doc["static_power_pw"] = 1e308, None
        path.write_text(json.dumps(doc))


# the first field that is not finite, where the check walks a model file
_NOT_FINITE_FIELD = {"fit": "static_power_pw", "reduce-hops": "constants.noc/hops:1/size:8",
                     "reduce-staircase": "reducers[0].a", "reduce-linear": "reducers[0].a"}


@pytest.mark.parametrize("case", ["estimate", "validate", "explore", "fit", "reduce-hops",
                                  "reduce-staircase", "reduce-linear"])
def test_a_result_that_is_not_finite_exits_5_and_writes_nothing(
        one_size, explore_model, tmp_path, case):
    """Finite constants of 1e308 add up past a float's range, and so can a
    fit of finite energies.  JSON has no spelling for the result, so the
    subcommand exits 5 on one line naming the model it read or would write,
    before it writes any file."""
    command, _, kind = case.partition("-")
    out, argv = _run_on_one_size(one_size, tmp_path, command)
    _write_results_that_are_not_finite(out, explore_model, case)
    if command == "estimate":
        argv += ["--output", str(out / "estimate.json")]
    elif command == "fit":
        argv += ["--function", "noc-hop", "--name", "noc"]
    elif command == "reduce":
        argv += ["--kind", kind]
    before = {rel: open(p, "rb").read() for rel, p in _tree_files(out).items()}
    rc, error = _run_quietly(argv, (EXIT_DATA,))
    assert rc == EXIT_DATA
    assert error.startswith(f"error:5:{out / 'models' / 'noc.json'}: ")
    assert error.endswith(" is not a finite number")
    assert f": {_NOT_FINITE_FIELD.get(case, '')}" in error
    assert {rel: open(p, "rb").read() for rel, p in _tree_files(out).items()} == before


def test_a_staircase_reducer_with_a_flit_payload_below_1_exits_5(one_size, explore_model,
                                                                  tmp_path):
    """A staircase reducer prices ceil(size / flit_payload_bytes) flits: a
    model file whose payload is below 1 byte is refused, not priced."""
    out, argv = _run_on_one_size(one_size, tmp_path, "estimate")
    path = out / "models" / "noc.json"
    doc = json.loads(explore_model.read_text())
    for reducer in doc["reducers"]:
        reducer["flit_payload_bytes"] = -8
    path.write_text(json.dumps(doc))
    assert _run_quietly(argv, (EXIT_DATA,)) == (EXIT_DATA, (
        f"error:5:{path}: staircase reducer needs flit_payload_bytes of 1 or more, got -8"))


def test_report_aggregates(tmp_path):
    """The summary depends on the outdir's contents, not on its path."""
    summaries = []
    for out in (tmp_path / "a", tmp_path / "elsewhere" / "b"):
        rc = main(["sweep-imem", "--lo", "0", "--hi", "3"]
                  + _defaults(out, "isa", "params"))
        assert rc == EXIT_OK
        (out / "reports" / "extra.json").write_text('{"n": 1}')
        rc = main(["report", "--out", str(out)])
        assert rc == EXIT_OK
        summaries.append((out / "summary.json").read_bytes())
    assert summaries[0] == summaries[1]
    summary = json.loads(summaries[0])
    assert summary["reports"] == {"extra.json": {"n": 1}}


def test_outdir_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("ENERMOD_OUTDIR", str(tmp_path / "env-out"))
    rc = main(["sweep-imem", "--lo", "0", "--hi", "3",
               "--config", data_path("default_config.json"),
               "--isa", data_path("isa.json"),
               "--params", data_path("oracle_params.json")])
    assert rc == EXIT_OK
    assert (tmp_path / "env-out" / "reports" / "sweep_imem.csv").exists()


def test_instruction_campaign_through_files(tmp_path):
    # a two-instruction ISA keeps the campaign small: (2+1)*(2+1)-1 = 8
    # groups x 3 patterns + idle/baseline calibration
    isa_path = tmp_path / "tiny_isa.json"
    isa_path.write_text(json.dumps([
        {"mnemonic": "nop", "iclass": "NOP", "allowed_slots": [0, 1],
         "reads_dmem": False, "writes_dmem": False},
        {"mnemonic": "add", "iclass": "ALU", "allowed_slots": [0, 1],
         "reads_dmem": False, "writes_dmem": False}]))
    tiny = ["--isa", str(isa_path)] + _defaults(tmp_path)
    assert main(["gen-bench", "--kind", "instr", "--reps", "8"] + tiny) == EXIT_OK
    manifest = (tmp_path / "benchmarks" / "manifest.csv").read_text()
    assert len(manifest.splitlines()) == 1 + 2 + 8 * 3
    assert main(["oracle", "--params", data_path("oracle_params.json")]
                + tiny) == EXIT_OK
    assert main(["fit", "--function", "instruction-fine", "--name", "tiny"]
                + _defaults(tmp_path)) == EXIT_OK
    doc = json.loads((tmp_path / "models" / "tiny.json").read_text())
    assert "group:add+add/pat:ones" in doc["constants"]
    assert "group:nop+add/pat:zeros" in doc["constants"]
    report = json.loads((tmp_path / "reports" / "fit_tiny.json").read_text())
    assert report["max_abs_error_pj"] < 1e-6
