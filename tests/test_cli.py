import json

import pytest
from click.testing import CliRunner

from homquery import cli
from homquery.cli import main
from homquery.homs import WorkBudgetExceeded
from homquery.query import StepLimitExceeded
from homquery.structures import (
    Signature,
    directed_cycle,
    directed_path,
    encode_structure,
    make_structure,
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
    r = runner.invoke(main, ["hom", "count", "--from", files["p2"],
                             "--to", files["c3"], "--semiring", "boolean"])
    assert r.output.strip() == "1"


def test_analyze(runner, files):
    r = runner.invoke(main, ["analyze", files["c3"]])
    assert r.exit_code == 0
    assert "gamma: 3" in r.output
    assert "components: 1" in r.output
    assert "berge-acyclic: False" in r.output
    assert "core-size: 3" in r.output
    # machine format swaps the separator
    r = runner.invoke(main, ["--format", "machine", "analyze", files["c3"]])
    assert "gamma=3" in r.output


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


def test_gen_dn(runner, tmp_path):
    out_dir = tmp_path / "family"
    r = runner.invoke(main, ["gen", "dn", "--n", "2", "--parity", "even",
                             "--out-dir", str(out_dir)])
    assert r.exit_code == 0
    written = sorted(out_dir.glob("*.json"))
    assert [p.name for p in written] == ["dn_2_even_m0.json", "dn_2_even_m2.json"]
    doc = json.loads(written[0].read_text(encoding="utf-8"))
    assert doc["domain"] == 4  # 4 copies of the loop


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
    assert "experiment=dn" in r.output


def test_experiment_bad_parameters_are_usage_errors(runner):
    for args, named in [(["dn"], "'n'"), (["dn", "n=abc"], "'n'"),
                        (["dn", "foo"], "'foo'"), (["nary", "bogus=1"], "'bogus'")]:
        r = runner.invoke(main, ["experiment", *args])
        assert r.exit_code == 2, (args, r.output)
        assert "Traceback" not in r.output
        assert named in r.output.strip().splitlines()[-1]


def test_experiment_out_of_range_parameters_are_usage_errors(runner):
    for args, named in [(["dn", "n=0"], "n must be >= 1"),
                        (["adaptive-not-better", "primes=5"], "'primes'"),
                        (["adaptive-not-better", "k=3"], "k=3"),
                        (["nary", "d_max=0"], "d_max must be >= 1")]:
        r = runner.invoke(main, ["experiment", *args])
        assert r.exit_code == 2, (args, r.output)
        assert "Traceback" not in r.output
        assert named in r.output.strip().splitlines()[-1]


def test_datalog_errors_are_one_line(runner, tmp_path, files):
    malformed = tmp_path / "malformed.dl"
    malformed.write_text("X(x).\nAns() :- X(y).\n", encoding="utf-8")
    for args in (["run", "--program", str(malformed), "--structure", files["c3"]],
                 ["check", "--program", str(malformed)],
                 # P and Q are missing from a digraph
                 ["run", "--program", "pq-reachability", "--structure", files["c3"]]):
        r = runner.invoke(main, ["datalog", *args])
        assert r.exit_code == 2, (args, r.output)
        assert "Traceback" not in r.output
        assert r.output.strip().startswith("error: datalog: ")
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
    for args in (["experiment", "dn", "n=7"],
                 ["experiment", "cycle-formula", "max_vertices=5"],
                 ["experiment", "nary", "n=4"],
                 ["--format", "machine", "experiment", "dn", "n=7"],
                 ["oracle", "hom", "--from", str(c9), "--to", str(c9)],
                 ["enumerate", "--size", "5"]):
        r = runner.invoke(main, args)
        assert r.exit_code == 3, (args, r.output)
        assert "Traceback" not in r.output
        lines = r.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: guard: "), args


def _one_error_line(r, code, prefix):
    assert r.exit_code == code, r.output
    assert "Traceback" not in r.output
    lines = r.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), r.output
    return lines[0]


def test_budget_and_step_cap_refusals_exit_3(runner, files, monkeypatch):
    def over_budget(a, b):
        raise WorkBudgetExceeded("search exceeded 10 nodes")

    def over_cap(name, s, **params):
        raise StepLimitExceeded("exceeded step cap 4")

    monkeypatch.setattr(cli, "hom_count", over_budget)
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
