"""
Command line interface: hom counting, structural analysis, running the
registered query algorithms, family generation, iso-class enumeration,
Datalog evaluation, experiments and the brute-force oracle.

Exit codes:
  0  every assertion made by the invoked command passed;
  1  an assertion failed (an experiment reports FAIL);
  2  bad usage or input, with a one-line message: a missing, unknown,
     non-integer or out-of-range experiment parameter, a structure file
     that decode_structure rejects ("error: input: <file>: <msg>"), or a
     Datalog program that is neither a builtin nor a file, does not parse
     or does not fit the structure;
  3  a refusal, with a one-line message: a size guard ("error: guard:
     <msg>"; --guard-override lifts the guards of analyze, enumerate and
     oracle), the search's work budget ("error: budget: <msg>") or an
     adaptive run's step cap ("error: step-limit: <msg>").
"""

from __future__ import annotations

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
from .experiments import EXPERIMENTS, ExperimentParameterError
from .homs import BOOLEAN, COUNT, WorkBudgetExceeded, hom_count, hom_exists
from .oracle import oracle_hom_count
from .query import StepLimitExceeded
from .registry import REGISTRY, run_registered
from .structures import (
    GuardExceeded,
    Structure,
    StructureDecodeError,
    decode_structure,
    encode_structure,
)

BIG_GUARD = 10 ** 9

# a directory passes exists=True and then fails to read with a traceback
STRUCTURE_FILE = click.Path(exists=True, dir_okay=False)


def _error(kind: str, message, code: int) -> typing.NoReturn:
    click.echo(f"error: {kind}: {message}", err=True)
    sys.exit(code)


class _Main(click.Group):
    "Turns a refusal by a guard, budget or step cap, from any command, into exit code 3."

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except GuardExceeded as exc:
            _error("guard", exc, 3)
        except WorkBudgetExceeded as exc:
            _error("budget", exc, 3)
        except StepLimitExceeded as exc:
            _error("step-limit", exc, 3)


@click.group(cls=_Main)
@click.option("--guard-override", is_flag=True,
              help="Lift desk-scale size guards (may take very long).")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for randomized checks.")
@click.option("--format", "fmt", type=click.Choice(["text", "machine"]),
              default="text", show_default=True)
@click.pass_context
def main(ctx, guard_override, seed, fmt):
    ctx.ensure_object(dict)
    ctx.obj["guard_override"] = guard_override
    ctx.obj["seed"] = seed
    ctx.obj["fmt"] = fmt
    if guard_override:
        click.echo("warning: size guards lifted", err=True)


def _load(path: str) -> Structure:
    try:
        return decode_structure(Path(path).read_text(encoding="utf-8"))
    except (StructureDecodeError, UnicodeDecodeError) as exc:
        _error("input", f"{path}: {exc}", 2)


def _kv(ctx, key, value):
    sep = ": " if ctx.obj["fmt"] == "text" else "="
    click.echo(f"{key}{sep}{value}")


@main.command("hom")
@click.argument("mode", type=click.Choice(["count", "exists"]))
@click.option("--from", "source", required=True, type=STRUCTURE_FILE)
@click.option("--to", "target", required=True, type=STRUCTURE_FILE)
@click.option("--semiring", type=click.Choice([COUNT, BOOLEAN]), default=COUNT,
              show_default=True)
def hom_cmd(mode, source, target, semiring):
    "Count or decide homomorphisms from one structure file into another."
    a, b = _load(source), _load(target)
    if mode == "exists" or semiring == BOOLEAN:
        click.echo("1" if hom_exists(a, b) else "0")
    else:
        click.echo(str(hom_count(a, b)))


@main.command("analyze")
@click.argument("structure_file", type=STRUCTURE_FILE)
@click.pass_context
def analyze_cmd(ctx, structure_file):
    "Print structural parameters of a structure file."
    s = _load(structure_file)
    guard = BIG_GUARD if ctx.obj["guard_override"] else 7
    _kv(ctx, "domain", s.domain_size)
    _kv(ctx, "components", component_count(s))
    _kv(ctx, "berge-acyclic", is_berge_acyclic(s))
    if s.is_digraph():
        _kv(ctx, "gamma", gamma(s))
    try:
        _kv(ctx, "core-size", core(s, guard=guard).domain_size)
    except GuardExceeded:
        _kv(ctx, "core-size", "skipped (size guard)")


@main.command("run")
@click.option("--algorithm", "name", required=True,
              type=click.Choice(sorted(REGISTRY)))
@click.option("--input", "input_file", required=True, type=STRUCTURE_FILE)
@click.option("--trace", is_flag=True)
@click.option("--n", "n_param", type=int, default=None,
              help="Family parameter for dn-sep / dn-binsearch.")
@click.pass_context
def run_cmd(ctx, name, input_file, trace, n_param):
    "Run a registered query algorithm against a structure file."
    s = _load(input_file)
    params = {} if n_param is None else {"n": n_param}
    report = run_registered(name, s, **params)
    if trace:
        for i, (query, answer) in enumerate(
                zip(report.queries_issued, report.transcript), start=1):
            facts = sum(len(ts) for ts in query.relations.values())
            _kv(ctx, f"query.{i}", f"size={query.domain_size} facts={facts} answer={answer}")
    _kv(ctx, "queries", report.query_count)
    click.echo("YES" if report.verdict else "NO")


@main.group("gen")
def gen_group():
    "Generate structure files."


@gen_group.command("dn")
@click.option("--n", required=True, type=int)
@click.option("--parity", required=True, type=click.Choice([alg.EVEN, alg.ODD]))
@click.option("--out-dir", type=click.Path(), default=".", show_default=True)
def gen_dn_cmd(n, parity, out_dir):
    "Write the power-of-two cycle family members as structure files."
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    members = alg.dn_family(alg.CycleFamilySpec(n, parity))
    start = 0 if parity == alg.EVEN else 1
    for i, member in enumerate(members):
        m = start + 2 * i
        path = out / f"dn_{n}_{parity}_m{m}.json"
        path.write_text(encode_structure(member), encoding="utf-8")
        click.echo(str(path))


@main.command("enumerate")
@click.option("--size", required=True, type=int)
@click.pass_context
def enumerate_cmd(ctx, size):
    "List all digraph iso-classes of the given size."
    guard = BIG_GUARD if ctx.obj["guard_override"] else 4
    catalog = enumerate_digraphs(size, guard=guard)
    _kv(ctx, "classes", len(catalog.representatives))
    for i, rep in enumerate(catalog.representatives):
        _kv(ctx, f"class.{i}", sorted(rep.relations["R"]))


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
    return parse_program(path.read_text(encoding="utf-8"))


@datalog_group.command("run")
@click.option("--program", required=True,
              help="Program file or builtin name "
                   f"({', '.join(sorted(BUILTIN_PROGRAM_TEXTS))}).")
@click.option("--structure", "structure_file", required=True,
              type=STRUCTURE_FILE)
def datalog_run_cmd(program, structure_file):
    "Evaluate a Boolean Datalog program on a structure file."
    structure = _load(structure_file)
    try:
        holds = evaluate(_load_program(program), structure)
    except DatalogError as exc:
        _error("datalog", exc, 2)
    click.echo("true" if holds else "false")


@datalog_group.command("check")
@click.option("--program", required=True)
@click.pass_context
def datalog_check_cmd(ctx, program):
    "Parse a program and print its (monadic, linear) classification."
    try:
        p = _load_program(program)
    except DatalogError as exc:
        _error("datalog", exc, 2)
    monadic, linear = classify_program(p)
    _kv(ctx, "monadic", monadic)
    _kv(ctx, "linear", linear)


@main.command("experiment")
@click.argument("experiment_id", type=click.Choice(sorted(EXPERIMENTS)))
@click.argument("params", nargs=-1)
@click.pass_context
def experiment_cmd(ctx, experiment_id, params):
    "Run an experiment; PARAMS are key=value integers (e.g. n=3)."
    experiment = EXPERIMENTS[experiment_id]
    int_params = {name for name, hint in typing.get_type_hints(experiment).items()
                  if hint is int}
    kwargs = {}
    for p in params:
        key, eq, value = p.partition("=")
        if not eq:
            raise click.UsageError(f"parameter {p!r} is not of the form key=value")
        key = key.replace("-", "_")
        if key not in int_params:
            raise click.UsageError(
                f"experiment {experiment_id}: no integer parameter {key!r}")
        try:
            kwargs[key] = int(value)
        except ValueError:
            raise click.UsageError(
                f"parameter {key!r}: {value!r} is not an integer") from None
    try:
        inspect.signature(experiment).bind(**kwargs)
    except TypeError as exc:
        raise click.UsageError(f"experiment {experiment_id}: {exc}") from None
    try:
        report = experiment(**kwargs)
    except ExperimentParameterError as exc:
        raise click.UsageError(f"experiment {experiment_id}: {exc}") from None
    click.echo(report.render(ctx.obj["fmt"]), nl=False)
    if not report.passed:
        sys.exit(1)


@main.group("oracle")
def oracle_group():
    "Brute-force oracles."


@oracle_group.command("hom")
@click.option("--from", "source", required=True, type=STRUCTURE_FILE)
@click.option("--to", "target", required=True, type=STRUCTURE_FILE)
@click.pass_context
def oracle_hom_cmd(ctx, source, target):
    "Count homomorphisms by full enumeration of all maps."
    guard = BIG_GUARD if ctx.obj["guard_override"] else 20_000_000
    click.echo(str(oracle_hom_count(_load(source), _load(target), guard=guard)))


if __name__ == "__main__":
    main()
