import hashlib
import itertools
import json
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

import test_experiments
from homquery import cli
from homquery.cli import main
from homquery.homs import WorkBudgetExceeded
from homquery.query import StepLimitExceeded
from homquery.structures import (
    GuardExceeded,
    Signature,
    digraph,
    directed_cycle,
    directed_path,
    encode_structure,
    isomorphic,
    make_structure,
    scalar_multiple,
)


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def files(tmp_path):
    out = {}
    for name, s in [("c3", directed_cycle(3)), ("c6", directed_cycle(6)),
                    ("p2", directed_path(2))]:
        path = tmp_path / f"{name}.json"
        path.write_text(encode_structure(s), encoding="utf-8")
        out[name] = str(path)
    pq_sig = Signature((("P", 1), ("Q", 1)))
    pq = make_structure(pq_sig, 2, {"P": {(0,), (1,)}, "Q": {(1,)}})
    path = tmp_path / "pq.json"
    path.write_text(encode_structure(pq), encoding="utf-8")
    out["pq"] = str(path)
    return out


def test_hom_count_and_exists(runner, files):
    r = runner.invoke(main, ["hom", "count", "--from", files["c6"],
                             "--to", files["c3"]])
    assert r.exit_code == 0 and r.output.strip() == "3"
    r = runner.invoke(main, ["hom", "exists", "--from", files["c3"],
                             "--to", files["c6"]])
    assert r.exit_code == 0 and r.output.strip() == "0"
    # the mode alone picks the semiring
    r = runner.invoke(main, ["hom", "count", "--from", files["p2"],
                             "--to", files["c3"], "--semiring", "boolean"])
    assert r.exit_code == 2 and "No such option" in r.output and "--semiring" in r.output


def test_hom_from_a_deep_source(runner, files, tmp_path):
    path = tmp_path / "p2000.json"
    path.write_text(encode_structure(directed_path(1999)), encoding="utf-8")
    for mode, expected in (("count", "3"), ("exists", "1")):
        r = runner.invoke(main, ["hom", mode, "--from", str(path), "--to", files["c3"]])
        assert r.exit_code == 0 and r.output.strip() == expected


def test_hom_count_prints_every_digit(runner, tmp_path):
    # hom(2,200 copies of P_1, K_10 with loops) = (10^2)^2200 = 10^4400, past
    # Python's default limit of 4,300 digits on int to str
    paths = []
    for name, s in (("p1x2200", scalar_multiple(2200, directed_path(1))),
                    ("k10", digraph(10, set(itertools.product(range(10), repeat=2))))):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(encode_structure(s), encoding="utf-8")
    limit = sys.get_int_max_str_digits()
    try:
        r = runner.invoke(main, ["hom", "count", "--from", str(paths[0]), "--to", str(paths[1])])
    finally:
        sys.set_int_max_str_digits(limit)
    assert r.exit_code == 0 and r.output == "1" + "0" * 4400 + "\n"


def test_analyze(runner, files):
    r = runner.invoke(main, ["analyze", files["c3"]])
    assert r.exit_code == 0
    assert "gamma: 3" in r.output
    assert "components: 1" in r.output
    assert "berge-acyclic: False" in r.output
    assert "core-size: 3" in r.output
    # the machine format is retired: its keys could hold its separator "="
    r = runner.invoke(main, ["--format", "machine", "analyze", files["c3"]])
    assert _one_error_line(r, 2, "error: usage: ") == \
        "error: usage: No such option '--format'."


def test_run_algorithm(runner, files):
    r = runner.invoke(main, ["run", "--algorithm", "cycle2q",
                             "--input", files["c3"]])
    assert r.exit_code == 0 and r.output.strip().endswith("YES")
    r = runner.invoke(main, ["run", "--algorithm", "cycle2q",
                             "--input", files["p2"], "--trace"])
    assert r.output.strip().endswith("NO")
    assert "query.1" in r.output and "query.2" in r.output
    r = runner.invoke(main, ["run", "--algorithm", "unary-full",
                             "--input", files["pq"]])
    assert r.output.strip().endswith("YES")


@pytest.mark.parametrize("name, structure, digest", [
    ("lovasz", directed_cycle(3),
     "0ce398b9b22294ce3af0782edbdf0054f56a89baee2ee90bab2bb128cb6c74cc"),
    ("right2q", directed_cycle(2),
     "fc27aa7c8bf67152928a46f797a90948ea5f0669dd56476aef761f09f225b249"),
    ("right2q", directed_cycle(3),
     "1f738ef9dfcc89899d0d5004314cdf34fb7e1481914026e95748a7382069ff8d")],
    ids=["lovasz-c3", "right2q-c2", "right2q-c3"])
def test_run_trace_output_is_pinned(runner, tmp_path, name, structure, digest):
    # SHA-256 of the whole output: every query, answer and the verdict
    path = tmp_path / "input.json"
    path.write_text(encode_structure(structure), encoding="utf-8")
    r = runner.invoke(main, ["run", "--algorithm", name, "--input", str(path), "--trace"])
    assert r.exit_code == 0
    assert hashlib.sha256(r.output.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("name, n, message", [
    ("cycle2q", "5", "error: usage: algorithm cycle2q: "
                     "got an unexpected keyword argument 'n'"),
    ("dn-sep", "0", "error: usage: algorithm dn-sep: n must be >= 1, got 0"),
    ("dn-binsearch", "-1", "error: usage: algorithm dn-binsearch: "
                           "n must be >= 1, got -1")],
    ids=["cycle2q", "dn-sep", "dn-binsearch"])
def test_run_n_errors_are_one_line_usage_errors(runner, files, name, n, message):
    # --n binds against the entry's build signature, then the build checks its range
    r = runner.invoke(main, ["run", "--algorithm", name, "--n", n,
                             "--input", files["c3"]])
    assert _one_error_line(r, 2, "error: usage: ") == message


def test_run_n_in_range(runner, files):
    r = runner.invoke(main, ["run", "--algorithm", "dn-sep", "--n", "1",
                             "--input", files["c3"]])
    assert r.exit_code == 0 and r.output.strip().endswith("NO")


@pytest.mark.parametrize("n", range(1, 7))
def test_dn_binsearch_halts_on_the_loop_for_every_n(runner, tmp_path, n):
    # the step cap is stated on n, not on the input's size: on C_1 (m = 0)
    # the search takes n.bit_length() queries, 3 for n = 4
    path = tmp_path / "c1.json"
    path.write_text(encode_structure(directed_cycle(1)), encoding="utf-8")
    r = runner.invoke(main, ["run", "--algorithm", "dn-binsearch", "--n", str(n),
                             "--input", str(path)])
    assert r.exit_code == 0, r.output
    assert r.output == f"queries: {n.bit_length()}\nYES\n"


@pytest.mark.parametrize("args, message", [
    (["run", "--algorithm", "cycle2q", "--input", "pq"], "signature mismatch"),
    (["run", "--algorithm", "unary-full", "--input", "c3"], "signature mismatch"),
    (["hom", "count", "--from", "c3", "--to", "pq"], "signature mismatch"),
    (["oracle", "hom", "--from", "c3", "--to", "pq"], "signature mismatch")],
    ids=["run-cycle2q", "run-unary-full", "hom-count", "oracle-hom"])
def test_signature_mismatches_are_input_errors(runner, files, args, message):
    args = [files.get(a, a) for a in args]
    assert _one_error_line(runner.invoke(main, args), 2, "error: input: ") == \
        f"error: input: {message}"


def test_gen_dn_out_of_range_is_usage_error(runner, tmp_path):
    r = runner.invoke(main, ["gen", "dn", "--n", "0", "--parity", "even",
                             "--out-dir", str(tmp_path / "family")])
    assert _one_error_line(r, 2, "error: usage: ") == \
        "error: usage: gen dn: n must be >= 1, got 0"
    assert not (tmp_path / "family").exists()


@pytest.mark.parametrize("size", ["0", "-2"])
def test_enumerate_size_below_one_is_usage_error(runner, size):
    r = runner.invoke(main, ["enumerate", "--size", size])
    assert _one_error_line(r, 2, "error: usage: ") == \
        f"error: usage: enumerate: n must be >= 1, got {size}"


@pytest.mark.parametrize("args", [
    ["run", "--algorithm", "dn-sep", "--n", "7", "--input", "c3"],
    ["run", "--algorithm", "dn-binsearch", "--n", "7", "--input", "c3"],
    ["gen", "dn", "--n", "7", "--parity", "odd", "--out-dir", "family"]],
    ids=["run-dn-sep", "run-dn-binsearch", "gen-dn"])
def test_dn_past_its_guard_is_refused_unless_lifted(runner, files, tmp_path, args):
    out_dir = tmp_path / "family"
    args = [{"c3": files["c3"], "family": str(out_dir)}.get(a, a) for a in args]
    _one_error_line(runner.invoke(main, args), 3, "error: guard: dn guard: n = 7 > 6")
    assert not out_dir.exists()
    r = runner.invoke(main, ["--guard-override", *args])
    assert r.exit_code == 0, r.output


def test_gen_dn(runner, tmp_path):
    out_dir = tmp_path / "family"
    r = runner.invoke(main, ["gen", "dn", "--n", "2", "--parity", "even",
                             "--out-dir", str(out_dir)])
    assert r.exit_code == 0
    written = sorted(out_dir.glob("*.json"))
    assert [p.name for p in written] == ["dn_2_even_m0.json", "dn_2_even_m2.json"]
    doc = json.loads(written[0].read_text(encoding="utf-8"))
    assert doc["domain"] == 4  # 4 copies of the loop


def test_gen_dn_into_a_file_is_usage_error(runner, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    r = runner.invoke(main, ["gen", "dn", "--n", "2", "--parity", "even",
                             "--out-dir", str(taken)])
    assert r.exit_code == 2 and "Traceback" not in r.output
    assert "is a file" in r.output


def test_gen_dn_under_a_file_is_usage_error(runner, tmp_path):
    under = tmp_path / "taken" / "family"
    under.parent.write_text("", encoding="utf-8")
    r = runner.invoke(main, ["gen", "dn", "--n", "2", "--parity", "even",
                             "--out-dir", str(under)])
    assert _one_error_line(r, 2, "error: usage: ") == \
        f"error: usage: gen dn: --out-dir {under}: Not a directory"


def test_gen_dn_onto_a_directory_is_usage_error(runner, tmp_path):
    # a directory where a member file goes cannot be written, root or not
    member = tmp_path / "dn_2_even_m0.json"
    member.mkdir()
    r = runner.invoke(main, ["gen", "dn", "--n", "2", "--parity", "even",
                             "--out-dir", str(tmp_path)])
    assert _one_error_line(r, 2, "error: usage: ") == \
        f"error: usage: gen dn: {member}: Is a directory"


def test_enumerate(runner):
    r = runner.invoke(main, ["enumerate", "--size", "2"])
    assert r.exit_code == 0
    assert "classes: 10" in r.output


def test_datalog_run_and_check(runner, files):
    r = runner.invoke(main, ["datalog", "run", "--program", "directed-cycle",
                             "--structure", files["c3"]])
    assert r.exit_code == 0 and r.output.strip() == "true"
    r = runner.invoke(main, ["datalog", "run", "--program", "directed-cycle",
                             "--structure", files["p2"]])
    assert r.output.strip() == "false"
    r = runner.invoke(main, ["datalog", "check", "--program", "pq-reachability"])
    assert "monadic: True" in r.output and "linear: True" in r.output


def test_datalog_program_from_file(runner, tmp_path, files):
    prog = tmp_path / "prog.dl"
    prog.write_text("X(x, y) :- R(x, y).\n"
                    "X(x, y) :- X(x, w), R(w, y).\n"
                    "Ans() :- X(z, z).\n", encoding="utf-8")
    r = runner.invoke(main, ["datalog", "run", "--program", str(prog),
                             "--structure", files["c3"]])
    assert r.exit_code == 0 and r.output.strip() == "true"


def test_experiment_command(runner):
    r = runner.invoke(main, ["experiment", "dn", "n=2"])
    assert r.exit_code == 0
    assert r.output.rstrip().endswith("PASS")
    r = runner.invoke(main, ["--format", "machine", "experiment", "dn", "n=2"])
    assert _one_error_line(r, 2, "error: usage: ") == \
        "error: usage: No such option '--format'."


def test_failed_experiment_exits_1(runner, monkeypatch):
    # a report that fails is printed whole, with nothing on stderr
    test_experiments.pad_left_detector(monkeypatch)
    r = runner.invoke(main, ["experiment", "unbounded-boolean", "max_vertices=1"])
    assert r.exit_code == 1
    assert "left-detector-within-bound: FAILED\n" in r.stdout
    assert r.stdout.endswith("result: FAIL\n")
    assert r.stderr == ""


def test_experiment_bad_parameters_are_usage_errors(runner):
    for args, named in [(["dn"], "'n'"), (["dn", "n=abc"], "'n'"),
                        (["dn", "foo"], "'foo'"), (["nary", "bogus=1"], "'bogus'"),
                        (["adaptive-not-better", "seed=0"], "'seed'"),
                        # a parameter given twice, also in its two spellings
                        (["dn", "n=2", "n=3"], "'n' given twice"),
                        (["cycle-formula", "max-vertices=2", "max_vertices=3"],
                         "'max_vertices' given twice")]:
        line = _one_error_line(runner.invoke(main, ["experiment", *args]), 2, "error: usage: ")
        assert named in line, (args, line)


def test_experiment_out_of_range_parameters_are_usage_errors(runner):
    for args, named in [(["dn", "n=0"], "n must be >= 1"),
                        (["adaptive-not-better", "primes=5"], "'primes'"),
                        (["adaptive-not-better", "k=3"], "k=3"),
                        (["nary", "d_max=0"], "d_max must be >= 1")]:
        line = _one_error_line(runner.invoke(main, ["experiment", *args]), 2, "error: usage: ")
        assert named in line, (args, line)


def test_datalog_errors_are_one_line(runner, tmp_path, files):
    malformed = tmp_path / "malformed.dl"
    malformed.write_text("X(x).\nAns() :- X(y).\n", encoding="utf-8")
    # its R would hide the structure's R, whose facts it would never read
    clash = tmp_path / "clash.dl"
    clash.write_text("R(x, y) :- R(y, x).\nAns() :- R(z, z).\n", encoding="utf-8")
    cases = [["run", "--program", str(malformed), "--structure", files["c3"]],
             ["check", "--program", str(malformed)],
             # P and Q are missing from a digraph
             ["run", "--program", "pq-reachability", "--structure", files["c3"]],
             ["run", "--program", str(clash), "--structure", files["c3"]]]
    # an atom whose arity differs from its predicate's, in run and in check
    for i, text in enumerate(["X(x) :- R(x, y).\nAns() :- X(x, y).\n",
                              "X(x) :- R(x, y).\nAns() :- X().\n",
                              "Ans() :- Ans(x).\n",
                              "Ans() :- R(x), R(x, y).\n"]):
        arity = tmp_path / f"arity{i}.dl"
        arity.write_text(text, encoding="utf-8")
        cases += [["run", "--program", str(arity), "--structure", files["c3"]],
                  ["check", "--program", str(arity)]]
    # a constant where a variable belongs, which would hold on any edge
    constant = tmp_path / "constant.dl"
    constant.write_text("Ans() :- R(0, 1).\n", encoding="utf-8")
    cases += [["run", "--program", str(constant), "--structure", files["c3"]],
              ["check", "--program", str(constant)]]
    for args in cases:
        r = runner.invoke(main, ["datalog", *args])
        assert r.exit_code == 2, (args, r.output)
        assert "Traceback" not in r.output
        assert r.output.strip().startswith("error: datalog: ")
        assert len(r.output.strip().splitlines()) == 1


def test_datalog_program_that_is_not_utf8_is_one_line_input_error(runner, tmp_path, files):
    binary = tmp_path / "binary.dl"
    binary.write_bytes(b"\xff\xfe")
    for args in (["run", "--program", str(binary), "--structure", files["c3"]],
                 ["check", "--program", str(binary)]):
        r = runner.invoke(main, ["datalog", *args])
        assert r.exit_code == 2, (args, r.output)
        assert "Traceback" not in r.output
        assert r.output.strip().startswith(f"error: datalog: {binary}: ")
        assert len(r.output.strip().splitlines()) == 1


def test_unknown_datalog_program_is_usage_error(runner, tmp_path, files):
    for spec in ("nosuch", "directed_cycle", str(tmp_path / "missing.dl"), str(tmp_path)):
        for args in (["run", "--program", spec, "--structure", files["c3"]],
                     ["check", "--program", spec]):
            r = runner.invoke(main, ["datalog", *args])
            assert r.exit_code == 2, (args, r.output)
            assert "Traceback" not in r.output
            lines = r.output.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: datalog: ")
            assert repr(spec) in lines[0]
            assert "directed-cycle, nonzero-net-cycle, pq-reachability" in lines[0]


def test_guard_refusals_exit_3(runner, tmp_path):
    c9 = tmp_path / "c9.json"
    c9.write_text(encode_structure(directed_cycle(9)), encoding="utf-8")
    c5 = tmp_path / "c5.json"
    c5.write_text(encode_structure(directed_cycle(5)), encoding="utf-8")
    for args in (["experiment", "dn", "n=7"],
                 ["run", "--algorithm", "lovasz", "--input", str(c5)],
                 ["experiment", "cycle-formula", "max_vertices=5"],
                 ["experiment", "nary", "n=4"],
                 ["oracle", "hom", "--from", str(c9), "--to", str(c9)],
                 ["enumerate", "--size", "5"]):
        r = runner.invoke(main, args)
        assert r.exit_code == 3, (args, r.output)
        assert "Traceback" not in r.output
        lines = r.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: guard: "), args


def test_oracle_guard_message_names_the_power(runner, files, tmp_path):
    # 3^2000 maps: the refusal is one short line, lifted guards or not
    path = tmp_path / "p2000.json"
    path.write_text(encode_structure(directed_path(1999)), encoding="utf-8")
    r = runner.invoke(main, ["oracle", "hom", "--from", str(path), "--to", files["c3"]])
    _one_error_line(r, 3, "error: guard: oracle guard: maps = 3^2000 > 20000000")
    assert len(r.output) < 120
    r = runner.invoke(main, ["--guard-override", "oracle", "hom", "--from", str(path),
                             "--to", files["c3"]])
    assert r.exit_code == 3 and "Traceback" not in r.output
    assert r.output.strip().splitlines()[-1] == \
        "error: guard: oracle guard: maps = 3^2000 > 1000000000"


def test_a_huge_domain_is_refused_at_the_door(tmp_path):
    # a few bytes state 10^8 elements: one guard line, exit 3, at once.  A
    # fresh process under a 2 GB address-space limit, so a build that
    # reaches the engines fails there instead of exhausting the host.
    path = tmp_path / "huge.json"
    path.write_text('{"signature": [{"name": "R", "arity": 2}], "domain": 100000000}',
                    encoding="utf-8")
    src = str(Path(cli.__file__).resolve().parents[1])
    start = time.perf_counter()
    r = subprocess.run(
        [sys.executable, "-m", "homquery.cli", "hom", "count", "--from", str(path),
         "--to", str(path)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)))
    elapsed = time.perf_counter() - start
    assert (r.returncode, r.stdout, r.stderr) == \
        (3, "", "error: guard: domain guard: |A| = 100000000 > 100000\n")
    assert elapsed < 1


@pytest.mark.parametrize("args", [
    ["hom", "count", "--from", "missing.json", "--to", "missing.json"],
    ["enumerate", "--size", "x"],
    ["--bogus"],
    ["bogus"],
    ["gen", "dn", "--n", "2", "--parity", "x"],
    ["--format", "machine", "experiment", "dn", "n=2"]],
    ids=["missing-file", "non-integer", "unknown-option", "unknown-command",
         "bad-choice", "format-machine"])
def test_click_parse_errors_are_one_line_usage_errors(runner, tmp_path, args):
    args = [str(tmp_path / a) if a == "missing.json" else a for a in args]
    r = runner.invoke(main, args)
    _one_error_line(r, 2, "error: usage: ")
    assert "Usage:" not in r.output and "Try" not in r.output


@pytest.mark.parametrize("args", [[], ["gen"]], ids=["homquery", "gen"])
def test_a_bare_group_prints_its_help_and_no_error_line(runner, args):
    # click >= 8.2 raises a bare group's help as a usage error, which exits 2
    r = runner.invoke(main, args)
    assert r.exit_code == (2 if cli._NO_ARGS_HELP else 0)
    assert "Usage:" in r.output and "error:" not in r.output and "Traceback" not in r.output


def test_output_lines_split_at_their_first_colon(runner, files):
    # every key/value line splits at its first ": " into a key without
    # blanks, so no key can hold the separator
    outputs = [text for name, text in vars(test_experiments).items()
               if name.endswith("_TEXT")]
    for args in (["analyze", files["c3"]], ["enumerate", "--size", "2"],
                 ["run", "--algorithm", "lovasz", "--input", files["c3"], "--trace"],
                 ["datalog", "check", "--program", "nonzero-net-cycle"]):
        r = runner.invoke(main, args)
        assert r.exit_code == 0, (args, r.output)
        outputs.append(r.output.removesuffix("YES\n").removesuffix("NO\n"))
    assert len(outputs) == 12
    for output in outputs:
        for line in output.splitlines():
            key, sep, _ = line.partition(": ")
            assert sep and re.fullmatch(r"\S+", key), line


def _one_error_line(r, code, prefix):
    assert r.exit_code == code, r.output
    assert "Traceback" not in r.output
    lines = r.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), r.output
    return lines[0]


def test_budget_and_step_cap_refusals_exit_3(runner, files, monkeypatch):
    def over_budget(a, b, semiring):
        raise WorkBudgetExceeded("search exceeded 10 nodes")

    def over_cap(name, s, **params):
        raise StepLimitExceeded("exceeded step cap 4")

    monkeypatch.setattr(cli, "hom_value", over_budget)
    monkeypatch.setattr(cli, "run_registered", over_cap)
    r = runner.invoke(main, ["hom", "count", "--from", files["c6"], "--to", files["c3"]])
    assert _one_error_line(r, 3, "error: budget: ") == \
        "error: budget: search exceeded 10 nodes"
    r = runner.invoke(main, ["run", "--algorithm", "cycle2q", "--input", files["c3"]])
    assert _one_error_line(r, 3, "error: step-limit: ") == \
        "error: step-limit: exceeded step cap 4"


R2 = '"signature": [{"name": "R", "arity": 2}]'
MALFORMED_STRUCTURES = [
    ('{"signature": [', "invalid JSON"),
    ('[]', "structure must be an object"),
    ('{"signature": [{"name": "R", "arity": true}], "domain": 2}',
     "arity of 'R' must be an integer, not true"),
    ('{"signature": [{"name": "R", "arity": 1.9}], "domain": 2}',
     "arity of 'R' must be an integer, not 1.9"),
    ('{' + R2 + ', "domain": 2.7}', "domain must be an integer, not 2.7"),
    ('{' + R2 + ', "domain": "2"}', 'domain must be an integer, not "2"'),
    ('{' + R2 + ', "domain": 2, "relations": {"R": [[0, true]]}}',
     "element of 'R' must be an integer, not true"),
    ('{' + R2 + ', "domain": 2, "relations": {"R": [[0, 1.0]]}}',
     "element of 'R' must be an integer, not 1.0"),
    ('{' + R2 + ', "domain": 2, "edges": []}', "structure has unknown key 'edges'"),
    ('{"signature": [{"name": "R", "arity": 2, "kind": "x"}], "domain": 2}',
     "signature entry has unknown key 'kind'"),
    ('{' + R2 + '}', "structure has no 'domain'"),
    ('{"signature": [{"name": "R", "arity": 2}, {"name": "R", "arity": 1}], "domain": 2}',
     "relation 'R' is declared twice"),
    ('{' + R2 + ', "domain": 2, "relations": {"R": [], "R": [[0, 1]]}}',
     "duplicate key 'R'"),
    ('{' + R2 + ', "domain": 2, "relations": {"S": [[0, 1]]}}',
     "relation 'S' is not in the signature"),
    ('{' + R2 + ', "domain": 2, "relations": {"R": [[0, 2]]}}',
     "element of 'R' must be in 0..1, not 2"),
    ('{' + R2 + ', "domain": 2, "relations": {"R": [[0, -1]]}}',
     "element of 'R' must be in 0..1, not -1"),
    ('{' + R2 + ', "domain": 2, "relations": {"R": [[0]]}}',
     "relation 'R': [0] is not a list of 2 elements"),
    ('{' + R2 + ', "domain": 0}', "domain must be >= 1, not 0"),
    pytest.param("[" * 200000, "invalid JSON", id="deeply-nested"),
]


@pytest.mark.parametrize("text, message", MALFORMED_STRUCTURES)
def test_malformed_structure_files_are_input_errors(runner, tmp_path, files, text, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    for args in (["analyze", str(bad)],
                 ["hom", "count", "--from", files["c3"], "--to", str(bad)]):
        r = runner.invoke(main, args)
        line = _one_error_line(r, 2, f"error: input: {bad}: ")
        assert message in line, (args, line)


def test_structure_file_that_is_not_utf8_or_a_file_is_input_error(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"domain": 1\xff}')
    _one_error_line(runner.invoke(main, ["analyze", str(bad)]), 2, f"error: input: {bad}: ")
    for args in (["analyze", str(tmp_path)],
                 ["hom", "count", "--from", str(tmp_path), "--to", str(tmp_path)]):
        r = runner.invoke(main, args)
        assert r.exit_code == 2 and "Traceback" not in r.output, r.output
        assert "is a directory" in r.output


def test_oracle_hom_command(runner, files):
    r = runner.invoke(main, ["oracle", "hom", "--from", files["c6"],
                             "--to", files["c3"]])
    assert r.exit_code == 0 and r.output.strip() == "3"


def test_guard_override_warns(runner, files):
    r = runner.invoke(main, ["--guard-override", "analyze", files["c3"]])
    assert r.exit_code == 0
    assert "size guards lifted" in r.output


def test_guard_override_lifts_experiment_guards(runner, tmp_path):
    r = runner.invoke(main, ["--guard-override", "experiment", "dn", "n=7"])
    assert r.exit_code == 0, r.output
    assert r.output.rstrip().endswith("result: PASS")
    # the lift ends with the command
    with pytest.raises(GuardExceeded):
        isomorphic(directed_cycle(9), directed_cycle(9))
    edgeless = tmp_path / "edgeless8.json"
    edgeless.write_text(encode_structure(digraph(8, set())), encoding="utf-8")
    r = runner.invoke(main, ["analyze", str(edgeless)])
    assert "core-size: skipped (size guard)" in r.output
    r = runner.invoke(main, ["--guard-override", "analyze", str(edgeless)])
    assert r.exit_code == 0 and "core-size: 1" in r.output
