import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import small_digraphs
from homquery.analysis import component_count, gamma
from homquery.homs import (
    BOOLEAN,
    COUNT,
    TABLE_CACHE_SIZE,
    WorkBudgetExceeded,
    _table,
    find_hom,
    hom_count,
    hom_equivalent,
    hom_exists,
    hom_into_cycle_union_formula,
    hom_into_nary_cycle_union_formula,
    hom_value,
    nu2,
)
from homquery.oracle import oracle_hom_count
from homquery.structures import (
    DIGRAPH_SIG,
    Signature,
    complete_pair,
    complete_singleton,
    digraph,
    direct_product,
    directed_cycle,
    directed_path,
    disjoint_union,
    make_structure,
    n_ary_cycle,
    scalar_multiple,
)


def test_hom_count_frozen_values():
    c3 = directed_cycle(3)
    assert hom_count(c3, c3) == 3
    assert hom_count(directed_path(2), c3) == 3
    assert hom_count(c3, directed_cycle(6)) == 0
    assert hom_count(directed_cycle(6), c3) == 3
    assert hom_count(directed_path(1), digraph(3, {(0, 1), (1, 2), (2, 0)})) == 3
    # hom(H, complete pair) = 2^|H|
    for h in (directed_path(3), directed_cycle(4), digraph(2, set())):
        assert hom_count(h, complete_pair(DIGRAPH_SIG)) == 2 ** h.domain_size
    # the edgeless singleton counts nothing unless the target has a vertex
    assert hom_count(digraph(1, set()), directed_cycle(5)) == 5


def test_hom_count_signature_mismatch():
    with pytest.raises(ValueError):
        hom_count(directed_cycle(2), complete_singleton(Signature((("P", 1),))))


def test_find_hom_returns_valid_witness():
    w = find_hom(directed_cycle(6), directed_cycle(3))
    assert w is not None
    for u, v in directed_cycle(6).relations["R"]:
        assert (w[u], w[v]) in directed_cycle(3).relations["R"]
    assert find_hom(directed_cycle(3), directed_cycle(6)) is None


def test_hom_exists_and_equivalent():
    assert hom_exists(directed_path(4), directed_cycle(3))
    assert not hom_exists(directed_cycle(1), directed_cycle(2))
    assert hom_equivalent(directed_cycle(3),
                          disjoint_union(directed_cycle(3), directed_cycle(6)))
    assert not hom_equivalent(directed_cycle(3), directed_cycle(4))
    assert hom_equivalent(directed_path(1), disjoint_union(directed_path(1),
                                                           directed_path(1)))


def test_hom_value_semirings():
    a, b = directed_path(2), directed_cycle(3)
    assert hom_value(a, b, COUNT) == 3
    assert hom_value(a, b, BOOLEAN) == 1
    assert hom_value(directed_cycle(3), directed_cycle(2), BOOLEAN) == 0
    with pytest.raises(ValueError):
        hom_value(a, b, "tropical")


def test_budget_exhaustion():
    star = digraph(7, {(0, i) for i in range(1, 7)})
    target = complete_pair(DIGRAPH_SIG)
    with pytest.raises(WorkBudgetExceeded):
        hom_count(star, target, budget=10)
    # unlimited budget allowed explicitly
    assert hom_count(star, target, budget=None) == 2 ** 7


# two or three relations of arities 1-3: facts with repeated elements make
# the search read every table mask (which tuple positions hold the new element)
MIXED_SIGNATURES = (
    Signature((("P", 1), ("R", 2))),
    Signature((("R", 2), ("T", 3))),
    Signature((("P", 1), ("R", 2), ("T", 3))),
    Signature((("E", 2), ("F", 2), ("U", 1))),
)


@st.composite
def mixed_structures(draw, sig, max_elements):
    n = draw(st.integers(1, max_elements))
    return make_structure(sig, n, {
        name: draw(st.sets(st.sampled_from(
            list(itertools.product(range(n), repeat=arity))), max_size=6))
        for name, arity in sig.relations})


@st.composite
def mixed_pairs(draw):
    sig = draw(st.sampled_from(MIXED_SIGNATURES))
    return draw(mixed_structures(sig, 4)), draw(mixed_structures(sig, 3))


def _is_hom(w, a, b) -> bool:
    return (sorted(w) == list(a.domain) and all(w[e] in b.domain for e in w)
            and all(tuple(w[e] for e in t) in b.relations[name] for name, t in a.facts()))


@settings(max_examples=300, deadline=None)
@given(mixed_pairs())
def test_engine_matches_oracle_on_mixed_signatures(pair):
    a, b = pair
    expected = oracle_hom_count(a, b)
    assert hom_count(a, b) == expected
    w = find_hom(a, b)
    assert (w is not None) == (expected > 0)
    if w is not None:
        assert _is_hom(w, a, b)


def _walks(d, length) -> int:
    "Number of directed walks with `length` edges, by adjacency-matrix powers."
    counts = [1] * d.domain_size
    for _ in range(length):
        counts = [sum(counts[v] for x, v in d.relations["R"] if x == u)
                  for u in d.domain]
    return sum(counts)


def test_large_counts_within_small_budget():
    # the adaptive-not-better k=2 shape: 2*C_105 into itself
    two_c105 = scalar_multiple(2, directed_cycle(105))
    assert hom_count(two_c105, two_c105, budget=200_000) == \
        hom_into_cycle_union_formula(two_c105, 2, 105) == 44_100
    w = find_hom(two_c105, two_c105, budget=200_000)
    assert w is not None and _is_hom(w, two_c105, two_c105)
    # P_6 into a seeded 40-vertex, 300-edge digraph
    rng = random.Random(0)
    edges = set()
    while len(edges) < 300:
        edges.add((rng.randrange(40), rng.randrange(40)))
    g = digraph(40, edges)
    assert hom_count(directed_path(6), g, budget=200_000) == _walks(g, 6)


def _grouped_table(relation, mask):
    "Reference for _table: group each tuple whose mask positions agree."
    grouped = {}
    for t in relation:
        new = {e for k, e in enumerate(t) if mask >> k & 1}
        if len(new) != 1:
            continue
        fixed = tuple(e for k, e in enumerate(t) if not mask >> k & 1)
        grouped.setdefault(fixed[0] if len(fixed) == 1 else fixed, set()).update(new)
    return {key: tuple(sorted(images)) for key, images in grouped.items()}


@st.composite
def relations(draw):
    arity, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    return arity, frozenset(draw(st.sets(st.sampled_from(
        list(itertools.product(range(n), repeat=arity))), max_size=12)))


@settings(max_examples=200, deadline=None)
@given(relations())
@example((2, frozenset()))
@example((3, frozenset()))
@example((2, frozenset({(0, 0), (0, 1), (2, 2), (1, 0)})))
@example((3, frozenset({(0, 1, 0), (1, 1, 0), (2, 0, 2), (1, 2, 1)})))
def test_table_matches_grouping_reference(rel):
    # every mask: one new position with zero, one or two fixed ones, and
    # several new positions (R(x, x) is mask 3, T(0, 1, 0) is mask 5)
    arity, relation = rel
    for mask in range(1, 2 ** arity):
        assert _table(relation, mask) == _grouped_table(relation, mask)


def test_sweep_past_the_table_cache_agrees_with_matrix_powers():
    # each target is read through masks 1, 2 and 3; two passes over more
    # targets than the cache holds evict every table before it is read again
    rng = random.Random(7)
    targets = []
    for _ in range(TABLE_CACHE_SIZE // 2 + 8):
        edges = {(rng.randrange(8), rng.randrange(8)) for _ in range(14)}
        targets.append(digraph(8, edges))
    sources = {"P_1": directed_path(1), "P_3": directed_path(3),
               "in-star": digraph(3, {(1, 0), (2, 0)}), "loop": digraph(1, {(0, 0)})}

    def sweep():
        return [{name: hom_count(a, g) for name, a in sources.items()} for g in targets]

    before = _table.cache_info().misses
    first = sweep()
    between = _table.cache_info().misses
    second = sweep()
    assert _table.cache_info().misses - between > TABLE_CACHE_SIZE
    assert between > before
    assert first == second
    for g, counts in zip(targets, first):
        in_degree = [sum(1 for _, v in g.relations["R"] if v == u) for u in g.domain]
        assert counts == {"P_1": _walks(g, 1), "P_3": _walks(g, 3),
                          "in-star": sum(d * d for d in in_degree),
                          "loop": sum(1 for u, v in g.relations["R"] if u == v)}


@settings(max_examples=100, deadline=None)
@given(small_digraphs(max_vertices=3), small_digraphs(max_vertices=3),
       small_digraphs(max_vertices=3))
def test_hom_count_sum_and_product_laws(a, b, t):
    # counting from a disjoint union multiplies; into a product multiplies
    assert hom_count(disjoint_union(a, b), t) == hom_count(a, t) * hom_count(b, t)
    assert hom_count(a, direct_product(b, t)) == hom_count(a, b) * hom_count(a, t)


@settings(max_examples=100, deadline=None)
@given(small_digraphs(max_vertices=3))
def test_hom_count_into_scalar_multiple(a):
    # each component picks a copy independently
    c = component_count(a)
    t = directed_cycle(3)
    assert hom_count(a, scalar_multiple(2, t)) == (2 ** c) * hom_count(a, t)


def test_cycle_union_formula_frozen_values():
    # hom(C_a, m*C_n) = m*n if n | a else 0
    assert hom_into_cycle_union_formula(directed_cycle(6), 1, 3) == 3
    assert hom_into_cycle_union_formula(directed_cycle(6), 2, 3) == 6
    assert hom_into_cycle_union_formula(directed_cycle(5), 1, 3) == 0
    # paths have gamma 0, every n divides it
    assert hom_into_cycle_union_formula(directed_path(2), 2, 3) == 6
    two_comps = disjoint_union(directed_cycle(4), directed_cycle(2))
    assert hom_into_cycle_union_formula(two_comps, 1, 2) == 4
    with pytest.raises(ValueError):
        hom_into_cycle_union_formula(directed_cycle(3), 0, 3)
    with pytest.raises(ValueError):
        hom_into_cycle_union_formula(directed_cycle(3), 1, 0)


@settings(max_examples=150, deadline=None)
@given(small_digraphs(max_vertices=4))
def test_cycle_union_formula_matches_engine(a):
    for m in (1, 2):
        for n in (1, 2, 3):
            assert hom_into_cycle_union_formula(a, m, n) == \
                hom_count(a, scalar_multiple(m, directed_cycle(n)))


def test_nary_cycle_union_formula():
    a = n_ary_cycle(6, 3)
    assert hom_into_nary_cycle_union_formula(a, 1, 3) == \
        hom_count(a, n_ary_cycle(3, 3))
    assert hom_into_nary_cycle_union_formula(a, 2, 4) == \
        hom_count(a, scalar_multiple(2, n_ary_cycle(4, 3)))
    assert hom_into_nary_cycle_union_formula(n_ary_cycle(3, 3), 1, 4) == 0
    # arity 1: gamma degenerates to 0, so the count is always (m*d)^components
    unary = make_structure(Signature((("R", 1),)), 2, {"R": {(0,), (1,)}})
    assert hom_into_nary_cycle_union_formula(unary, 1, 2) == \
        hom_count(unary, n_ary_cycle(2, 1))
    with pytest.raises(ValueError):
        two_rel = Signature((("R", 2), ("S", 2)))
        hom_into_nary_cycle_union_formula(
            make_structure(two_rel, 1, {"R": set(), "S": set()}), 1, 2)


def test_nu2():
    assert nu2(0) == math.inf
    assert nu2(1) == 0
    assert nu2(12) == 2
    assert nu2(2 ** 9) == 9
    assert nu2(96) == 5


def test_gamma_divisibility_governs_cycle_targets():
    for a in (directed_cycle(4), directed_path(3),
              disjoint_union(directed_cycle(2), directed_cycle(4))):
        g = gamma(a)
        for n in range(1, 6):
            expected = (g % n == 0)
            assert hom_exists(a, directed_cycle(n)) == expected
