import itertools
import random

import pytest
from hypothesis import given, settings

from conftest import core_reference, count_calls, small_digraphs
from homquery import homs
from homquery.analysis import (
    CORE_GUARD,
    component_count,
    components_of,
    core,
    gamma,
    hom_equiv_to_acyclic,
    is_berge_acyclic,
    star_transform,
)
from homquery.catalog import enumerate_digraphs
from homquery.homs import hom_exists
from homquery.oracle import is_core_of, oracle_gamma, oracle_hom_count
from homquery.structures import (
    DIGRAPH_SIG,
    GuardExceeded,
    Signature,
    Structure,
    digraph,
    directed_cycle,
    directed_path,
    disjoint_union,
    guards_lifted,
    isomorphic,
    make_structure,
    n_ary_cycle,
    scalar_multiple,
)

PLANTED_SHAPES = [(3, 2), (4, 2), (5, 1), (4, 3), (5, 2), (6, 1)]


def planted_core(rng: random.Random, core_size: int, twins: int) -> Structure:
    """
    A random tournament on core_size vertices plus twins copies of its
    vertices (each with its original's in- and out-neighbours), vertices
    shuffled.  A loopless tournament is a core, so it is the core of the
    whole.
    """
    n = core_size + twins
    tournament = {(u, v) if rng.random() < 0.5 else (v, u)
                  for u in range(core_size) for v in range(u + 1, core_size)}
    edges = set(tournament)
    for x in range(core_size, n):
        original = rng.randrange(core_size)
        edges |= {(x, v) for u, v in tournament if u == original}
        edges |= {(u, x) for u, v in tournament if v == original}
    perm = list(range(n))
    rng.shuffle(perm)
    return digraph(n, {(perm[u], perm[v]) for u, v in edges})


def test_component_count():
    assert component_count(disjoint_union(directed_cycle(3), directed_cycle(3))) == 2
    assert component_count(directed_path(2)) == 1
    # isolated elements are their own components
    assert component_count(digraph(3, {(0, 1)})) == 2
    for n, m in [(2, 0), (3, 1), (3, 3)]:
        member = scalar_multiple(2 ** (n - m), directed_cycle(2 ** m))
        assert component_count(member) == 2 ** (n - m)


def test_components_list_their_bfs_order_with_ascending_neighbours():
    # 2's neighbours 9 and 3 are visited in ascending order, not set order
    # (9 before 3 in a set of this size); homs._plan searches in this order
    assert components_of(10, [{(2, 9), (2, 3), (3, 4), (9, 4)}])[2] == [2, 3, 9, 4]


@given(small_digraphs(max_vertices=3), small_digraphs(max_vertices=3))
def test_component_count_additive(a, b):
    assert component_count(disjoint_union(a, b)) == \
        component_count(a) + component_count(b)


def test_is_berge_acyclic():
    assert is_berge_acyclic(directed_path(3))
    # a loop repeats its element: two parallel incidence edges
    assert not is_berge_acyclic(directed_cycle(1))
    assert not is_berge_acyclic(directed_cycle(2))
    assert is_berge_acyclic(digraph(3, {(0, 1), (0, 2)}))
    # two parallel tuples between the same pair of elements form a cycle
    two_rel = Signature((("R", 2), ("S", 2)))
    s = make_structure(two_rel, 2, {"R": {(0, 1)}, "S": {(0, 1)}})
    assert not is_berge_acyclic(s)
    # as does one pair held in R and, reversed, in S beside a tree edge: two facts
    s = make_structure(two_rel, 3, {"R": {(0, 1), (1, 2)}, "S": {(2, 1)}})
    assert not is_berge_acyclic(s)
    ternary = Signature((("T", 3),))
    # a fact with a repeated element is not Berge-acyclic
    assert not is_berge_acyclic(make_structure(ternary, 2, {"T": {(0, 1, 0)}}))
    assert is_berge_acyclic(make_structure(ternary, 3, {"T": {(0, 1, 2)}}))


def test_berge_acyclic_counts():
    # the digraph classes of 1-4 vertices that are oriented forests
    assert [sum(map(is_berge_acyclic, enumerate_digraphs(n).representatives))
            for n in (1, 2, 3, 4)] == [1, 2, 5, 14]
    # seeded structures with a unary, a binary and a ternary relation
    sig = Signature((("R", 2), ("P", 1), ("T", 3)))
    rng = random.Random(33)
    sample = []
    for _ in range(1000):
        n = rng.randint(1, 6)
        sample.append(make_structure(sig, n, {
            name: {tuple(rng.randrange(n) for _ in range(arity)) for _ in range(rng.randint(0, 2))}
            for name, arity in sig.relations}))
    assert sum(map(is_berge_acyclic, sample)) == 257


def test_gamma_frozen_values():
    for n in range(1, 7):
        assert gamma(directed_cycle(n)) == n
    for k in range(0, 5):
        assert gamma(directed_path(k)) == 0
    assert gamma(disjoint_union(directed_cycle(2), directed_cycle(3))) == 1
    # alternating 4-cycle has net length 0
    assert gamma(digraph(4, {(0, 1), (2, 1), (2, 3), (0, 3)})) == 0
    # forward-forward-chord triangle: nets 1 and 3 with gcd 1
    assert gamma(digraph(3, {(0, 1), (1, 2), (0, 2)})) == 1


@settings(max_examples=300)
@given(small_digraphs(max_vertices=5))
def test_gamma_matches_cycle_enumeration_oracle(d):
    assert gamma(d) == oracle_gamma(d)


@settings(max_examples=150)
@given(small_digraphs(max_vertices=4))
def test_maps_to_cycle_matches_brute_force(d):
    for n in range(1, 7):
        # a hom into C_n exists iff n divides gamma
        assert (gamma(d) % n == 0) == (oracle_hom_count(d, directed_cycle(n)) > 0)


def test_star_transform():
    for d in range(1, 5):
        for n in (2, 3):
            assert isomorphic(star_transform(n_ary_cycle(d, n)), directed_cycle(d))
    s = make_structure(Signature((("T", 3),)), 3, {"T": {(0, 1, 2)}})
    assert star_transform(s).relations["R"] == {(0, 1), (1, 2)}
    s = make_structure(Signature((("T", 3),)), 1, {"T": {(0, 0, 0)}})
    assert star_transform(s).relations["R"] == {(0, 0)}
    with pytest.raises(ValueError):
        star_transform(make_structure(Signature((("P", 1),)), 1, {"P": set()}))


def test_core():
    assert isomorphic(core(disjoint_union(directed_path(1), directed_path(2))),
                      directed_path(2))
    with guards_lifted():
        assert isomorphic(core(disjoint_union(directed_cycle(3), directed_cycle(6))),
                          directed_cycle(3))
    assert isomorphic(core(directed_cycle(3)), directed_cycle(3))
    with pytest.raises(GuardExceeded):
        core(directed_cycle(8))


@settings(max_examples=60, deadline=None)
@given(small_digraphs(max_vertices=4))
def test_core_is_hom_equivalent_and_minimal(s):
    c = core(s)
    assert hom_exists(c, s) and hom_exists(s, c)
    # no proper retraction: re-running the core search does not shrink it
    assert core(c).domain_size == c.domain_size


def _core_reference_inputs():
    "Catalog classes, seeded digraphs with loops, planted cores and a ternary structure."
    for n in (1, 2, 3):
        yield from enumerate_digraphs(n).representatives
    yield from enumerate_digraphs(4).representatives[::7]
    rng = random.Random(20)
    for _ in range(200):
        n = rng.randint(5, 7)
        density = rng.choice((0.2, 0.35, 0.5))
        # loops are rare: one makes the core a single loop
        yield digraph(n, {(u, v) for u, v in itertools.product(range(n), repeat=2)
                          if rng.random() < (0.03 if u == v else density)})
    for shape in PLANTED_SHAPES * 4:
        yield planted_core(rng, *shape)
    ternary = Signature((("T", 3), ("P", 1)))
    yield make_structure(ternary, 6, {"T": {(0, 1, 2), (3, 4, 5), (1, 2, 0), (4, 5, 3), (2, 2, 2)},
                                      "P": {(0,), (3,), (5,)}})
    yield make_structure(ternary, 5, {"T": {(0, 1, 2), (0, 3, 4), (2, 0, 1)}, "P": {(2,)}})


def test_core_matches_the_reference_loop():
    for s in _core_reference_inputs():
        assert core(s) == core_reference(s), s


def _z5_with_two_twins() -> Structure:
    "The rotational 5-tournament plus twins of 0 and 2, as CI's planted input."
    tournament = [(i, (i + d) % 5) for i in range(5) for d in (1, 2)]
    twin = {0: 5, 2: 6}
    return digraph(7, tournament + [(twin[u], v) for u, v in tournament if u in twin]
                   + [(u, twin[v]) for u, v in tournament if v in twin])


def _transitive_tournament(n: int) -> Structure:
    return digraph(n, {(u, v) for u in range(n) for v in range(u + 1, n)})


def _core_calls(monkeypatch):
    "A function from s to (|core(s)|, find_hom calls, hom_count calls)."
    finds = count_calls(monkeypatch, homs.find_hom)
    counts = count_calls(monkeypatch, homs.hom_count)

    def calls(s):
        finds[0] = counts[0] = 0
        return core(s).domain_size, finds[0], counts[0]
    return calls


def test_core_tries_each_refuted_element_once(monkeypatch):
    calls = _core_calls(monkeypatch)
    rng = random.Random(3)
    # the twins fold onto their originals; a tournament with only the
    # identity endomorphism then needs no search, and (3, 2)'s, a 3-cycle,
    # has three, so each of its elements is refuted once
    assert [calls(planted_core(rng, *shape)) for shape in PLANTED_SHAPES] == \
        [(3, 3, 1), (4, 0, 1), (5, 0, 1), (4, 0, 1), (5, 0, 1), (6, 0, 1)]
    # a directed path folds nothing and its only endomorphism is the identity
    assert calls(directed_path(6)) == (7, 0, 1)
    # 12 endomorphisms: two refutations in C_2, then C_4 retracts onto C_2
    # (5 searches when the refuted elements were searched again after it)
    assert calls(disjoint_union(directed_cycle(2), directed_cycle(4))) == (2, 3, 1)
    # three rotations: each element refuted once
    assert calls(directed_cycle(3)) == (3, 3, 1)
    # the twins fold; the five rotations leave five refutations
    assert calls(_z5_with_two_twins()) == (5, 5, 1)
    # the twin folds onto its original and the rest is rigid
    tt5 = _transitive_tournament(5)
    twin = {(5, v) for u, v in tt5.relations["R"] if u == 2} | \
        {(u, 5) for u, v in tt5.relations["R"] if v == 2}
    assert calls(digraph(6, tt5.relations["R"] | twin)) == (5, 0, 1)


def test_core_at_the_guard_stays_inside_the_budget(monkeypatch):
    calls = _core_calls(monkeypatch)
    n = CORE_GUARD
    # every element dominates every other: the fold leaves one
    assert calls(digraph(n, set(itertools.product(range(n), repeat=2)))) == (1, 0, 0)
    assert calls(_transitive_tournament(n)) == (n, 0, 1)
    # n! endomorphisms, all automorphisms: each element is refuted once
    assert calls(digraph(n, {(u, v) for u, v in itertools.product(range(n), repeat=2)
                             if u != v})) == (n, n, 1)


def test_core_is_a_core_by_the_oracle():
    rng = random.Random(38)
    seeded = [digraph(n, {(u, v) for u, v in itertools.product(range(n), repeat=2)
                          if rng.random() < (0.03 if u == v else 0.35)})
              for n in [5, 6] * 20]
    # the last inputs of _core_reference_inputs: its planted cores and its
    # two ternary structures
    planted_and_ternary = list(_core_reference_inputs())[-len(PLANTED_SHAPES) * 4 - 2:]
    inputs = [s for n in (1, 2, 3, 4) for s in enumerate_digraphs(n).representatives] \
        + seeded + planted_and_ternary
    for s in inputs:
        assert is_core_of(core(s), s), s
    # and the check refuses: the symmetric edge K_2 does not map to one
    # loopless element, and C_2 + C_4 retracts onto C_2
    k2 = digraph(2, {(0, 1), (1, 0)})
    assert not is_core_of(digraph(1, ()), k2)
    c2c4 = disjoint_union(directed_cycle(2), directed_cycle(4))
    assert not is_core_of(c2c4, c2c4)
    assert is_core_of(directed_cycle(2), c2c4)


def test_hom_equiv_to_acyclic():
    assert hom_equiv_to_acyclic(directed_path(3))
    assert not hom_equiv_to_acyclic(directed_cycle(1))
    assert not hom_equiv_to_acyclic(disjoint_union(directed_cycle(3), directed_path(1)))
