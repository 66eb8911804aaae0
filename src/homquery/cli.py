"""
Command line interface: hom counting, structural analysis, running the
registered query algorithms, family generation, iso-class enumeration,
Datalog evaluation, experiments and the brute-force oracle.

--guard-override lifts every desk-scale size guard, for every command, to
10^9 (structures.guards_lifted), a structure file's domain guard included;
it does not lift right2q's size cap (algorithms.RIGHT2Q_SIZE_CAP).

Exit codes:
  0  every assertion made by the invoked command passed;
  1  an assertion failed (an experiment reports FAIL);
  2  bad usage or input, with a one-line message: an option, argument or command
     that click rejects, a missing, unknown, non-integer or out-of-range
     experiment parameter, a run --n that the algorithm does not take, an
     out-of-range run --n, gen dn --n or enumerate --size, a gen dn --out-dir
     or member file that cannot be written ("error: usage: <msg>", click's own
     message for click's), a structure file that decode_structure rejects
     ("error: input: <file>: <msg>"), structures whose signatures do not
     match each other or the algorithm's queries ("error: input: signature
     mismatch"), or a Datalog program that is neither a builtin nor a file,
     is not UTF-8 ("error: datalog: <file>: <msg>"), does not parse or does
     not fit the structure (a missing EDB relation, a wrong arity, or a
     derived predicate named as one of the structure's relations);
  3  a refusal, with a one-line message: a size guard ("error: guard:
     <msg>"), the search's work budget ("error: budget: <msg>"), an
     adaptive run's step cap ("error: step-limit: <msg>") or running out
     of memory, as a run past a lifted guard may ("error: memory: out of
     memory").
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import typing
from pathlib import Path

import click

from . import algorithms as alg
from .analysis import component_count, core, gamma, is_berge_acyclic
from .catalog import enumerate_digraphs
from .datalog import (
    BUILTIN_PROGRAM_TEXTS,
    DatalogError,
    classify_program,
    evaluate,
    parse_program,
)
from .experiments import EXPERIMENTS
from .homs import BOOLEAN, COUNT, WorkBudgetExceeded, hom_value
from .oracle import oracle_hom_count
from .query import StepLimitExceeded
from .registry import REGISTRY, run_registered
from .structures import (
    GuardExceeded,
    SignatureMismatch,
    Structure,
    StructureDecodeError,
    decode_structure,
    encode_structure,
    guards_lifted,
)

# a directory passes exists=True and then fails to read with a traceback
STRUCTURE_FILE = click.Path(exists=True, dir_okay=False)
_NO_ARGS_HELP = getattr(click.exceptions, "NoArgsIsHelpError", ())


# the exit code of each kind of one-line error: bad usage or input, or a refusal
_EXIT_CODES = {"usage": 2, "input": 2, "datalog": 2,
               "guard": 3, "budget": 3, "step-limit": 3, "memory": 3}


def _error(kind: str, message) -> typing.NoReturn:
    click.echo(f"error: {kind}: {message}", err=True)
    sys.exit(_EXIT_CODES[kind])


class _Main(click.Group):
    "Reports each usage, input or Datalog error (exit 2) and refusal (exit 3) in one line."

    def make_context(self, *args, **kwargs):
        with _one_line_errors():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _one_line_errors():
            return super().invoke(ctx)


@contextlib.contextmanager
def _one_line_errors():
    try:
        yield
    except _NO_ARGS_HELP:  # click >= 8.2 raises a bare group's help as a usage error
        raise
    except click.UsageError as exc:
        _error("usage", exc.format_message())
    except SignatureMismatch as exc:
        _error("input", exc)
    except DatalogError as exc:
        _error("datalog", exc)
    except GuardExceeded as exc:
        _error("guard", exc)
    except WorkBudgetExceeded as exc:
        _error("budget", exc)
    except StepLimitExceeded as exc:
        _error("step-limit", exc)
    except MemoryError:
        _error("memory", "out of memory")


@click.group(cls=_Main)
@click.option("--guard-override", is_flag=True,
              help="Lift every desk-scale size guard to 10^9 (may take very long).")
@click.pass_context
def main(ctx, guard_override):
    # exact counts are printed in full, past Python's 4,300-digit default
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    if guard_override:
        ctx.with_resource(guards_lifted())
        click.echo("warning: size guards lifted", err=True)


def _load(path: str) -> Structure:
    try:
        return decode_structure(Path(path).read_text(encoding="utf-8"))
    except (StructureDecodeError, UnicodeDecodeError) as exc:
        _error("input", f"{path}: {exc}")


def _kv(key, value):
    click.echo(f"{key}: {value}")


@main.command("hom")
@click.argument("mode", type=click.Choice(["count", "exists"]))
@click.option("--from", "source", required=True, type=STRUCTURE_FILE)
@click.option("--to", "target", required=True, type=STRUCTURE_FILE)
def hom_cmd(mode, source, target):
    "Count or decide homomorphisms from one structure file into another."
    a, b = _load(source), _load(target)
    click.echo(str(hom_value(a, b, COUNT if mode == "count" else BOOLEAN)))


@main.command("analyze")
@click.argument("structure_file", type=STRUCTURE_FILE)
def analyze_cmd(structure_file):
    "Print structural parameters of a structure file."
    s = _load(structure_file)
    _kv("domain", s.domain_size)
    _kv("components", component_count(s))
    _kv("berge-acyclic", is_berge_acyclic(s))
    if s.is_digraph():
        _kv("gamma", gamma(s))
    try:
        _kv("core-size", core(s).domain_size)
    except GuardExceeded:
        _kv("core-size", "skipped (size guard)")


@main.command("run")
@click.option("--algorithm", "name", required=True,
              type=click.Choice(sorted(REGISTRY)))
@click.option("--input", "input_file", required=True, type=STRUCTURE_FILE)
@click.option("--trace", is_flag=True)
@click.option("--n", "n_param", type=int, default=None,
              help="Family parameter for dn-sep / dn-binsearch.")
def run_cmd(name, input_file, trace, n_param):
    "Run a registered query algorithm against a structure file."
    params = {} if n_param is None else {"n": n_param}
    try:
        inspect.signature(REGISTRY[name].build).bind(**params)
    except TypeError as exc:
        _error("usage", f"algorithm {name}: {exc}")
    s = _load(input_file)
    try:
        report = run_registered(name, s, **params)
    except alg.ParameterError as exc:
        _error("usage", f"algorithm {name}: {exc}")
    if trace:
        for i, (query, answer) in enumerate(
                zip(report.queries_issued, report.transcript), start=1):
            facts = sum(len(ts) for ts in query.relations.values())
            _kv(f"query.{i}", f"size={query.domain_size} facts={facts} answer={answer}")
    _kv("queries", report.query_count)
    click.echo("YES" if report.verdict else "NO")


@main.group("gen")
def gen_group():
    "Generate structure files."


@gen_group.command("dn")
@click.option("--n", required=True, type=int)
@click.option("--parity", required=True, type=click.Choice([alg.EVEN, alg.ODD]))
@click.option("--out-dir", type=click.Path(file_okay=False), default=".", show_default=True)
def gen_dn_cmd(n, parity, out_dir):
    "Write the power-of-two cycle family members as structure files."
    try:
        members = alg.dn_family(n, parity)
    except alg.ParameterError as exc:
        _error("usage", f"gen dn: {exc}")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # such as a file on the path
        _error("usage", f"gen dn: --out-dir {out_dir}: {exc.strerror}")
    for m, member in members:
        path = out / f"dn_{n}_{parity}_m{m}.json"
        try:
            path.write_text(encode_structure(member), encoding="utf-8")
        except OSError as exc:  # such as a directory at the path
            _error("usage", f"gen dn: {path}: {exc.strerror}")
        click.echo(str(path))


@main.command("enumerate")
@click.option("--size", required=True, type=int)
def enumerate_cmd(size):
    "List all digraph iso-classes of the given size."
    try:
        catalog = enumerate_digraphs(size)
    except ValueError as exc:
        _error("usage", f"enumerate: {exc}")
    _kv("classes", len(catalog.representatives))
    for i, rep in enumerate(catalog.representatives):
        _kv(f"class.{i}", sorted(rep.relations["R"]))


@main.group("datalog")
def datalog_group():
    "Evaluate or inspect Datalog programs."


def _load_program(spec: str):
    if spec in BUILTIN_PROGRAM_TEXTS:
        return parse_program(BUILTIN_PROGRAM_TEXTS[spec])
    path = Path(spec)
    if not path.is_file():
        raise DatalogError(
            f"{spec!r} is neither a builtin program "
            f"({', '.join(sorted(BUILTIN_PROGRAM_TEXTS))}) nor a file")
    try:
        return parse_program(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise DatalogError(f"{spec}: {exc}") from None


@datalog_group.command("run")
@click.option("--program", required=True,
              help="Program file or builtin name "
                   f"({', '.join(sorted(BUILTIN_PROGRAM_TEXTS))}).")
@click.option("--structure", "structure_file", required=True,
              type=STRUCTURE_FILE)
def datalog_run_cmd(program, structure_file):
    "Evaluate a Boolean Datalog program on a structure file."
    structure = _load(structure_file)
    click.echo("true" if evaluate(_load_program(program), structure) else "false")


@datalog_group.command("check")
@click.option("--program", required=True)
def datalog_check_cmd(program):
    "Parse a program and print its (monadic, linear) classification."
    monadic, linear = classify_program(_load_program(program))
    _kv("monadic", monadic)
    _kv("linear", linear)


@main.command("experiment")
@click.argument("experiment_id", type=click.Choice(sorted(EXPERIMENTS)))
@click.argument("params", nargs=-1)
def experiment_cmd(experiment_id, params):
    "Run an experiment; PARAMS are key=value integers (e.g. n=3)."
    experiment = EXPERIMENTS[experiment_id]
    # every experiment parameter is an integer
    signature = inspect.signature(experiment)
    kwargs = {}
    for p in params:
        key, eq, value = p.partition("=")
        if not eq:
            _error("usage", f"parameter {p!r} is not of the form key=value")
        key = key.replace("-", "_")
        if key not in signature.parameters:
            _error("usage", f"experiment {experiment_id}: no integer parameter {key!r}")
        if key in kwargs:
            _error("usage", f"experiment {experiment_id}: parameter {key!r} given twice")
        try:
            kwargs[key] = int(value)
        except ValueError:
            _error("usage", f"parameter {key!r}: {value!r} is not an integer")
    try:
        signature.bind(**kwargs)
    except TypeError as exc:
        _error("usage", f"experiment {experiment_id}: {exc}")
    try:
        report = experiment(**kwargs)
    except alg.ParameterError as exc:
        _error("usage", f"experiment {experiment_id}: {exc}")
    click.echo(report.render(), nl=False)
    if not report.passed:
        sys.exit(1)


@main.group("oracle")
def oracle_group():
    "Brute-force oracles."


@oracle_group.command("hom")
@click.option("--from", "source", required=True, type=STRUCTURE_FILE)
@click.option("--to", "target", required=True, type=STRUCTURE_FILE)
def oracle_hom_cmd(source, target):
    "Count homomorphisms by full enumeration of all maps."
    click.echo(str(oracle_hom_count(_load(source), _load(target))))


if __name__ == "__main__":
    main()
