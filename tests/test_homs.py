import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import count_calls, small_digraphs
from homquery import homs
from homquery.algorithms import right_separator
from homquery.analysis import component_count, gamma, induced_substructure
from homquery.catalog import enumerate_digraphs_upto
from homquery.homs import (
    BOOLEAN,
    COUNT,
    WorkBudgetExceeded,
    _table,
    find_hom,
    hom_count,
    hom_exists,
    hom_into_cycle_union_formula,
    hom_into_nary_cycle_union_formula,
    hom_value,
)
from homquery.oracle import oracle_hom_count
from homquery.structures import (
    CACHE_SIZE,
    DIGRAPH_SIG,
    Signature,
    complete_pair,
    complete_singleton,
    digraph,
    direct_product,
    directed_cycle,
    directed_path,
    disjoint_union,
    encode_structure,
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
    def hom_equivalent(a, b):
        return hom_exists(a, b) and hom_exists(b, a)

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


def test_budget_exhaustion(monkeypatch):
    star = digraph(7, {(0, i) for i in range(1, 7)})
    target = complete_pair(DIGRAPH_SIG)
    assert hom_count(star, target) == 2 ** 7
    monkeypatch.setattr(homs, "DEFAULT_BUDGET", 10)
    with pytest.raises(WorkBudgetExceeded):
        hom_count(star, target)


def test_budget_counts_each_candidate_image_tried(monkeypatch):
    # the least budget a call finishes within is the number of candidate
    # images it tries: each one at an inner position (memo hits too), all of
    # the last position's at once in a count and the first in a find, summed
    # over the source's distinct parts and, for each, over the target's
    # distinct parts, so it does not grow with the number of copies of a part
    # on either side
    pair = complete_pair(DIGRAPH_SIG)
    in_star = digraph(3, {(1, 0), (2, 0)})
    c2s = scalar_multiple(5000, directed_cycle(2))
    assert hom_count(directed_cycle(4), c2s) == 10_000
    f3 = right_separator(3)[0]
    cases = [(hom_count, digraph(7, {(0, i) for i in range(1, 7)}), pair, 26),
             (hom_count, in_star, pair, 10),
             (find_hom, in_star, pair, 3),
             (hom_exists, in_star, pair, 3),
             (find_hom, directed_cycle(6), directed_cycle(3), 6),
             (hom_exists, directed_cycle(6), directed_cycle(3), 6),
             (find_hom, directed_cycle(3), directed_cycle(6), 12),
             (hom_exists, directed_cycle(3), directed_cycle(6), 12),
             (hom_count, disjoint_union(directed_path(3), directed_cycle(2)),
              directed_cycle(3), 15),
             (hom_count, directed_cycle(4), c2s, 8),
             (find_hom, directed_cycle(4), c2s, 4),
             (hom_exists, directed_cycle(4), c2s, 4),
             (find_hom, directed_cycle(3), c2s, 4),
             (hom_exists, directed_cycle(3), c2s, 4),
             # K_1 has no edge, so C_3 tries no image in it: only P_2 is searched
             (find_hom, directed_cycle(3), disjoint_union(digraph(1, set()), directed_path(2)), 5),
             (hom_exists, directed_cycle(3), disjoint_union(digraph(1, set()), directed_path(2)), 5),
             # placed in the order 0, 2, 9, 3 (BFS over ascending neighbours);
             # the order 0, 9, 2, 3 would try 26; the six isolated elements
             # are copies of one part, whose two images are tried once
             (hom_count, digraph(10, {(0, 9), (2, 0), (2, 3)}), pair, 20),
             # 5,000 copies of P_2 are one part, searched as P_2 alone
             (hom_count, directed_path(2), f3, 1_115),
             (hom_count, scalar_multiple(5000, directed_path(2)), f3, 1_115)]
    for run, a, b, tried in cases:
        monkeypatch.setattr(homs, "DEFAULT_BUDGET", tried)
        run(a, b)
        monkeypatch.setattr(homs, "DEFAULT_BUDGET", tried - 1)
        with pytest.raises(WorkBudgetExceeded):
            run(a, b)


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
            and all(tuple(w[e] for e in t) in b.relations[name]
                    for name, ts in a.relations.items() for t in ts))


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


def test_engine_matches_oracle_on_every_catalog_pair():
    # all 13,456 ordered pairs of digraphs on at most three vertices, both semirings
    catalog = enumerate_digraphs_upto(3)
    for a in catalog:
        for b in catalog:
            count = hom_count(a, b)
            assert count == oracle_hom_count(a, b)
            w = find_hom(a, b)
            assert (w is not None) == (count > 0)
            assert hom_exists(a, b) == (w is not None)
            if w is not None:
                assert _is_hom(w, a, b)


def _union_target_cases():
    "(source, union target) pairs; targets and some sources repeat, order or mix components."
    c2, c3, p2 = directed_cycle(2), directed_cycle(3), directed_path(2)
    dot = digraph(1, set())
    # repeated components and an isolated element
    repeated = disjoint_union(scalar_multiple(3, c2), disjoint_union(
        dot, disjoint_union(c3, scalar_multiple(2, p2))))
    # one edge each way round: isomorphic, but not equal by ascending labels
    mirrored = digraph(4, {(0, 1), (3, 2)})
    # the first part (C_2) has no hom from C_3, a later one (C_3) has
    late = disjoint_union(scalar_multiple(2, c2), c3)
    sources = [c2, c3, p2, directed_path(3), dot, digraph(2, set()),
               directed_cycle(6), disjoint_union(p2, c3), digraph(3, {(0, 1), (2, 1)}),
               scalar_multiple(3, c2)]
    for target in (repeated, mirrored, late):
        yield from ((a, target) for a in sources)
    # a source with repeated components, into targets small enough for the
    # oracle's guard (9 source elements)
    for target in (mirrored, disjoint_union(c2, c3)):
        yield disjoint_union(scalar_multiple(2, p2), c3), target
    # each source component reads a table that is empty for the other's part
    # (a loop has none in P_1): a part is skipped only for the component
    # that reads the empty table
    loop_and_edge = disjoint_union(directed_cycle(1), directed_path(1))
    yield loop_and_edge, loop_and_edge
    sig = Signature((("P", 1), ("T", 3)))
    tri = make_structure(sig, 3, {"P": {(0,)}, "T": {(0, 1, 2)}})
    loop = make_structure(sig, 1, {"P": set(), "T": {(0, 0, 0)}})
    bare = make_structure(sig, 2, {"P": {(1,)}, "T": set()})
    mixed = disjoint_union(scalar_multiple(2, tri), disjoint_union(bare, loop))
    for a in (tri, loop, bare, scalar_multiple(2, tri), disjoint_union(bare, loop),
              disjoint_union(scalar_multiple(2, tri), loop),
              make_structure(sig, 2, {"P": {(0,)}, "T": {(0, 1, 1)}})):
        yield a, mixed


def test_engine_matches_oracle_on_union_targets():
    for a, b in _union_target_cases():
        count = hom_count(a, b)
        assert count == oracle_hom_count(a, b), (a, b)
        w = find_hom(a, b)
        assert (w is None) == (count == 0), (a, b)
        if w is not None:
            assert _is_hom(w, a, b), (a, b, w)


def test_parts_group_equal_relabelled_components():
    def parts(s):
        return [(size, len(copies)) for size, _, copies
                in homs._parts(s.domain_size, (s.relations["R"],))]

    c2 = directed_cycle(2)
    assert parts(directed_cycle(5)) == [(5, 1)]
    assert parts(scalar_multiple(5000, c2)) == [(2, 5000)]
    assert parts(disjoint_union(c2, disjoint_union(digraph(1, set()), c2))) == [(2, 2), (1, 1)]
    assert parts(digraph(4, {(0, 1), (3, 2)})) == [(2, 1), (2, 1)]
    # a source with six isolated elements: they are copies of one part
    assert parts(digraph(10, {(0, 9), (2, 0), (2, 3)})) == [(4, 1), (1, 6)]
    # each copy lists its elements by new label, ascending
    (_, relations, copies), = homs._parts(6, (digraph(6, {(3, 0), (0, 3), (1, 5), (5, 1),
                                                         (2, 4), (4, 2)}).relations["R"],))
    assert relations == (frozenset({(0, 1), (1, 0)}),)
    assert copies == ((0, 3), (1, 5), (2, 4))
    # a connected structure keeps its own relations
    c5 = directed_cycle(5)
    (_, relations, copies), = homs._parts(5, (c5.relations["R"],))
    assert relations[0] is c5.relations["R"] and list(copies[0]) == [0, 1, 2, 3, 4]
    # a part's plan searches in its BFS order, not its ascending elements:
    # two interleaved copies of the path 0 -> 3 -> 1 -> 2 (BFS 0, 3, 1, 2)
    interleaved = digraph(8, {(0, 6), (6, 2), (2, 4), (1, 7), (7, 3), (3, 5)})
    (size, relations, copies), = homs._parts(8, (interleaved.relations["R"],))
    assert copies == ((0, 2, 4, 6), (1, 3, 5, 7))
    _, (order, _, _) = homs._plan(size, relations)
    assert order == (0, 3, 1, 2)


def test_a_repeated_query_resolves_nothing_anew():
    # the second query reads each structure's parts from the object and the
    # tables of each pair of parts from one lookup: no engine cache misses,
    # one plan per source part and one table lookup per pair of parts
    caches = {"parts": homs._parts, "plan": homs._plan, "table": _table,
              "tables": homs._tables}

    def info():
        return {name: cache.cache_info() for name, cache in caches.items()}

    a = disjoint_union(directed_cycle(6), directed_path(2))  # two parts
    b = digraph(4, {(0, 1), (1, 2), (2, 0), (2, 3)})  # one part
    for query in (hom_count, hom_exists):
        query(a, b)
        before = info()
        query(a, b)
        after = info()
        assert {name: (after[name].hits - before[name].hits,
                       after[name].misses - before[name].misses) for name in caches} == \
            {"parts": (0, 0), "plan": (2, 0), "table": (0, 0), "tables": (2, 0)}, query


def test_an_equal_structure_built_afresh_hits_the_parts_cache():
    s = digraph(5, {(0, 1), (1, 2), (2, 0), (3, 4)})
    first, again = (induced_substructure(s, [0, 1, 2, 3]) for _ in range(2))
    assert first == again and first is not again
    hom_count(first, s)
    before = homs._parts.cache_info()
    hom_count(again, s)
    after = homs._parts.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)


def test_the_parts_kept_on_a_structure_stay_out_of_its_value():
    queried, twin = (disjoint_union(directed_cycle(3), directed_path(1)) for _ in range(2))
    seen = (hash(queried), repr(queried), encode_structure(queried))
    assert hom_count(queried, queried) == 12 and hom_exists(queried, queried)
    # the memo is held on the queried object, and nothing reads it as a value
    assert vars(queried).keys() > vars(twin).keys()
    assert queried == twin and twin == queried
    assert (hash(queried), repr(queried), encode_structure(queried)) == seen


def test_find_hom_into_a_union_maps_into_the_first_part_with_a_hom():
    # C_3 has no hom into C_2, so the witness lands in the copy of C_3 at 4-6
    late = disjoint_union(scalar_multiple(2, directed_cycle(2)), directed_cycle(3))
    assert find_hom(directed_cycle(3), late) == {0: 4, 1: 5, 2: 6}
    # from a union source, each copy takes the same least witness
    assert find_hom(scalar_multiple(2, directed_cycle(3)), late) == \
        {0: 4, 1: 5, 2: 6, 3: 4, 4: 5, 5: 6}


def test_deep_sources_run_past_the_recursion_limit():
    # one open search position per source element: 5,001 is past Python's
    # default recursion limit of 1,000
    path, c3 = directed_path(5000), directed_cycle(3)
    assert hom_count(path, c3) == 3
    w = find_hom(path, c3)
    assert w is not None and _is_hom(w, path, c3)


def _walks(d, length) -> int:
    "Number of directed walks with `length` edges, by adjacency-matrix powers."
    counts = [1] * d.domain_size
    for _ in range(length):
        counts = [sum(counts[v] for x, v in d.relations["R"] if x == u)
                  for u in d.domain]
    return sum(counts)


def test_large_counts_within_small_budget(monkeypatch):
    monkeypatch.setattr(homs, "DEFAULT_BUDGET", 200_000)
    # the adaptive-not-better k=2 shape: 2*C_105 into itself
    two_c105 = scalar_multiple(2, directed_cycle(105))
    assert hom_count(two_c105, two_c105) == \
        hom_into_cycle_union_formula(two_c105, 2, 105) == 44_100
    w = find_hom(two_c105, two_c105)
    assert w is not None and _is_hom(w, two_c105, two_c105)
    # P_6 into a seeded 40-vertex, 300-edge digraph
    rng = random.Random(0)
    edges = set()
    while len(edges) < 300:
        edges.add((rng.randrange(40), rng.randrange(40)))
    g = digraph(40, edges)
    assert hom_count(directed_path(6), g) == _walks(g, 6)


def test_walk_and_cycle_identities_past_the_oracle():
    # hom(P_k, G) = 1^T M^k 1 and hom(C_k, G) = tr(M^k) for the adjacency
    # matrix M of G (Lovasz, Large networks and graph limits, ch. 5); |G|^k
    # is past the oracle's 2*10^7-map guard from k = 6 on
    rng = random.Random(2024)
    for n, m in ((20, 40), (18, 60)):
        g = digraph(n, {(rng.randrange(n), rng.randrange(n)) for _ in range(m)})
        adjacency = [[int((u, v) in g.relations["R"]) for v in g.domain] for u in g.domain]
        power = adjacency
        for k in range(1, 41):
            assert hom_count(directed_path(k), g) == sum(map(sum, power)), k
            assert hom_count(directed_cycle(k), g) == sum(power[u][u] for u in g.domain), k
            power = [[sum(a * b for a, b in zip(row, column)) for column in zip(*adjacency)]
                     for row in power]


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
    for _ in range(CACHE_SIZE // 2 + 8):
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
    assert _table.cache_info().misses - between > CACHE_SIZE
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


def test_closed_forms_compute_each_sources_invariants_once(monkeypatch):
    # a sweep over the 12 targets m*C_n (m <= 3, n <= 4) computes gamma and
    # the component count of its source once; so does an n-ary sweep, with
    # gamma of the star transform
    source = disjoint_union(directed_cycle(6), directed_path(3))
    cycle_targets = [(m, n) for m in (1, 2, 3) for n in (1, 2, 3, 4)]
    expected = [hom_count(source, scalar_multiple(m, directed_cycle(n)))
                for m, n in cycle_targets]
    ternary = n_ary_cycle(6, 3)
    nary_targets = [(m, d) for d in (1, 2, 3) for m in (1, 2)]
    nary_expected = [hom_count(ternary, scalar_multiple(m, n_ary_cycle(d, 3)))
                     for m, d in nary_targets]
    homs._cycle_invariants.cache_clear()
    gamma_calls = count_calls(monkeypatch, gamma)
    component_calls = count_calls(monkeypatch, component_count)
    assert [hom_into_cycle_union_formula(source, m, n)
            for m, n in cycle_targets] == expected
    assert gamma_calls == [1] and component_calls == [1]
    assert [hom_into_nary_cycle_union_formula(ternary, m, d)
            for m, d in nary_targets] == nary_expected
    assert gamma_calls == [2] and component_calls == [2]


def test_gamma_divisibility_governs_cycle_targets():
    for a in (directed_cycle(4), directed_path(3),
              disjoint_union(directed_cycle(2), directed_cycle(4))):
        g = gamma(a)
        for n in range(1, 6):
            expected = (g % n == 0)
            assert hom_exists(a, directed_cycle(n)) == expected
