"""
Every size guard, from one mapping: with its limit patched low, each call
that checks it refuses, runs under guards_lifted(), and then refuses again,
so no cache keeps a lifted result past the lift.
"""

import ast
from pathlib import Path

import pytest

from homquery import algorithms as alg
from homquery import analysis, catalog, experiments, oracle, structures
from homquery.structures import (
    GuardExceeded,
    decode_structure,
    directed_cycle,
    encode_structure,
    guards_lifted,
)

C3 = directed_cycle(3)

# (module, constant) -> (a low limit, the calls that check it, each past it)
GUARDS = {
    (structures, "ISOMORPHIC_GUARD"): (2, [lambda: structures.isomorphic(C3, C3)]),
    (structures, "DOMAIN_GUARD"): (2, [lambda: decode_structure(encode_structure(C3))]),
    (catalog, "CATALOG_GUARD"): (2, [lambda: catalog.enumerate_digraphs(3),
                                     lambda: catalog.enumerate_digraphs_upto(3)]),
    (analysis, "CORE_GUARD"): (2, [lambda: analysis.core(C3),
                                   lambda: analysis.hom_equiv_to_acyclic(C3)]),
    (oracle, "ORACLE_GUARD"): (8, [lambda: oracle.oracle_hom_count(directed_cycle(2), C3)]),
    (alg, "INSTANCE_GUARD"): (5, [lambda: alg.adaptive_not_better_instance(1, (2, 3))]),
    (alg, "DN_GUARD"): (2, [lambda: alg.dn_member(3, 1),
                            lambda: alg.dn_nonadaptive_separator(3),
                            lambda: alg.dn_adaptive_binary_search(3)]),
    (experiments, "NARY_ARITY_GUARD"): (1, [lambda: experiments.experiment_nary(2, 1)]),
    (experiments, "NARY_DOMAIN_GUARD"): (1, [lambda: experiments.experiment_nary(1, 2)]),
}

CASES = [(module, name, low, call)
         for (module, name), (low, calls) in GUARDS.items() for call in calls]


@pytest.mark.parametrize("module, name, low, call", CASES, ids=[
    f"{name}-{i}" for (_, name), (_, calls) in GUARDS.items() for i in range(len(calls))])
def test_each_guard_refuses_then_lifts_then_refuses_again(monkeypatch, module, name, low, call):
    monkeypatch.setattr(module, name, low)
    with pytest.raises(GuardExceeded, match=f"> {low}$"):
        call()
    with guards_lifted():
        call()
    with pytest.raises(GuardExceeded, match=f"> {low}$"):
        call()


def _guard_limits(node):
    "The limit named at each check_guard( and guard_limit( call under node."
    if isinstance(node, ast.FunctionDef) and node.name == "check_guard":
        return  # its one call forwards its own parameter
    if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(
            node.func, "attr", None)) in ("check_guard", "guard_limit"):
        limit = node.args[-1]
        assert isinstance(limit, ast.Name), ast.unparse(node)
        yield limit.id
    for child in ast.iter_child_nodes(node):
        yield from _guard_limits(child)


def test_the_mapping_covers_every_guard():
    source = Path(structures.__file__).parent
    called = {(path.stem, name) for path in source.glob("*.py")
              for name in _guard_limits(ast.parse(path.read_text(encoding="utf-8")))}
    mapped = {(module.__name__.rpartition(".")[2], name) for module, name in GUARDS}
    assert called == mapped


def test_right2q_cap_is_not_a_guard():
    # its separator weights are drawn for 3 vertices, lifted guards or not
    with guards_lifted(), pytest.raises(GuardExceeded, match=r"^input size 4 > cap 3$"):
        alg.right_separator(alg.RIGHT2Q_SIZE_CAP + 1)
