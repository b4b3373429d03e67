"""End-to-end CLI behavior: artifacts, exit codes, idempotence."""

import argparse
import ast
import contextlib
import copy
import filecmp
import io
import json
import os
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
from enermod.modelfit import save_model
from enermod.pipeline import build_simplified_model


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
    rc = main(["gen-bench", "--kind", "comm", "--min", "8", "--max", "16",
               "--step", "8", "--api", data_path("api.json")]
              + _defaults(tmp_path))
    assert rc == EXIT_OK
    program = sorted((tmp_path / "benchmarks").glob("*.json"))[0]
    program.write_text(json.dumps({"cpus": {"x": []}}))
    capsys.readouterr()
    rc = main(["oracle"] + _defaults(tmp_path, "isa", "params"))
    assert rc == EXIT_INVARIANT
    assert "'x'" in _one_error_line(capsys, EXIT_INVARIANT)
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


def test_every_option_is_read_by_its_subcommand():
    with open(cli.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    [subparsers] = [a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)]
    unread = []
    for command, parser in sorted(subparsers.choices.items()):
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
    (_EXPLORE, "--steps")])
@pytest.mark.parametrize("value", ["0", "-1", "-3"])
def test_count_below_1_is_a_usage_error(tmp_path, capsys, command, option, value):
    with pytest.raises(SystemExit) as err:
        main(command + [option, value] + _defaults(tmp_path))
    assert err.value.code == EXIT_USAGE
    assert f"argument {option}" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


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


def test_ledger_line_without_a_comma_exits_5(tmp_path, capsys):
    error = _fit_with_ledger_line(tmp_path, capsys, "core")
    assert "comm__h2__16.csv: line 11:" in error


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
    model; it must fail with exactly one error:5: line, naming the last line."""
    path = out / "bad.tsv"
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main(["estimate", "--model", str(out / "models" / "noc.json"),
               "--trace", str(path)])
    assert rc == EXIT_DATA
    error = _one_error_line(capsys, EXIT_DATA)
    assert error.startswith(f"error:{EXIT_DATA}:line {len(lines)}:")


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
    # the last line is an idle CPU's one span, over the whole run
    start, component, _, length = lines[-1].split("\t")
    start, end = int(start), int(start) + int(length.removeprefix("length="))
    span = f"\t{component}\tidle\t"
    for bad in (lines[-1] + " why=stall",                     # another attribute
                f"{start}{span}", f"{start}{span}length=x",    # no length; not an integer
                f"{start}{span}length=0",                      # below 1
                lines[-1],                                     # a duplicate span
                f"{start + 1}{span}length=1",                  # an overlapping span
                f"{end}{span}length=1"):                       # an adjacent span
        _estimate_exits_5(tmp_path, capsys, lines + [bad])


def test_estimate_of_a_malformed_trace_line_exits_5(tmp_path, capsys):
    lines = _one_packet_trace(tmp_path)
    for bad in ("x\tcpu0\tsync\t", "0\tcpu0\tsync\tfoo"):  # cycle; payload item
        _estimate_exits_5(tmp_path, capsys, [bad])
        _estimate_exits_5(tmp_path, capsys, lines + [bad])


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
    if how == "missing field":
        lines[i] = lines[i].rsplit("\t", 1)[0]
    elif how in ("cycle", "repeated tail"):
        lines[i] = cycle + "\t" + tails[i]
    elif how == "idle payload":
        lines[i] += " why=stall"
    elif how == "idle length":
        lines[i] = (lines[i].rsplit("\t", 1)[0] + "\t"
                    + ["", "length=x", "length=0", "length=-1"][pick % 4])
    elif how == "attribute":
        lines[i] += "stall" if lines[i].endswith("\t") else " stall"
    elif how == "unknown kind":
        fields = lines[i].split("\t")
        fields[2] = "bogus"
        lines[i] = "\t".join(fields)
    else:   # a span line that repeats, overlaps or adjoins the span of line j
        spans = {k: lines[k].split("\t") for k in idle}
        if how == "overlapping span":
            idle = [k for k in idle if spans[k][3] != "length=1"]
        elif how == "adjacent span":    # the last span of its component
            idle = [k for k in idle if k + 1 not in spans or spans[k + 1][1] != spans[k][1]]
        j = idle[pick % len(idle)]
        start, component, kind, length = spans[j]
        start, length = int(start), int(length.removeprefix("length="))
        if how == "overlapping span":
            start, length = start + 1, length - 1
        elif how == "adjacent span":
            start, length = start + length, 1
        if i == j:
            i = (i + 1) % len(lines)
        lines[i] = f"{start}\t{component}\t{kind}\tlength={length}"
        i = max(i, j)
    return lines, i + 1


@pytest.mark.parametrize("how", ["missing field", "cycle", "idle payload", "idle length",
                                 "attribute", "second idle", "overlapping span",
                                 "adjacent span", "repeated tail", "unknown kind"])
@settings(max_examples=15, deadline=None)
@given(pick=st.integers(0, 10**6), cycle=st.sampled_from(["x", "", "1.5", "0x1", "1e3"]))
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
    assert len(errors) == 1 and errors[0].startswith(f"error:{EXIT_DATA}:line {lineno}:")
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("command,option", [
    ("gen-bench", "--src"), ("gen-bench", "--dst"),
    ("sweep-noc", "--src"), ("sweep-noc", "--dst")])
def test_malformed_coordinate_is_a_usage_error(tmp_path, capsys, command, option):
    kind = ["--kind", "comm"] if command == "gen-bench" else []
    with pytest.raises(SystemExit) as err:
        main([command, *kind, option, "abc"] + _defaults(tmp_path))
    assert err.value.code == EXIT_USAGE
    assert f"argument {option}" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_fit_with_idle_as_a_paired_kind_exits_5(tmp_path, capsys):
    assert main(["gen-bench", "--kind", "comm", "--min", "8", "--max", "8",
                 "--step", "8", "--api", data_path("api.json")]
                + _defaults(tmp_path)) == EXIT_OK
    rules = tmp_path / "pair_idle.json"
    rules.write_text(json.dumps({
        "level": "FINE_GRAINED", "rules": [{"match": {}, "emit": "discard"}],
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


def test_estimate_with_a_model_whose_level_is_not_its_functions_exits_5(
        one_packet, tmp_path, capsys):
    out, lines = one_packet
    doc = json.loads((out / "models" / "noc.json").read_text())
    assert doc["level"] == doc["function"]["level"] == "FINE_GRAINED"
    doc["level"] = "ACTIVE_IDLE"
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    trace = tmp_path / "trace.tsv"
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main(["estimate", "--model", str(model), "--trace", str(trace)])
    assert rc == EXIT_DATA
    assert "ACTIVE_IDLE" in _one_error_line(capsys, EXIT_DATA)


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
    """Run the CLI; it must exit with one of codes, and with exactly one
    error:<code>: line and no traceback unless it succeeds."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert rc in (EXIT_OK, *codes)
    assert len(errors) == (rc != EXIT_OK)
    assert all(line.startswith(f"error:{rc}:") for line in errors)
    assert "Traceback" not in err.getvalue()


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


# every field a rule file can hold: level, domain, name, rules, pair, then
_RULE_FILE = {
    "level": "FINE_GRAINED", "domain": "event", "name": "bundle-pairs",
    "rules": [{"match": {"kind": ["sync", "ni-transfer"]}, "emit": "{kind}"},
              {"match": {}, "emit": "discard"}],
    "pair": {"attr": "group", "template": "trans:{prev}>{cur}",
             "kinds": ["bundle-issue"]},
    "then": {"level": "FINE_GRAINED", "domain": "key",
             "rules": [{"match": {}, "emit": "{key}"}]},
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
