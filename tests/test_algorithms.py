import itertools

import pytest
from hypothesis import given, settings

from conftest import count_calls, hom_vector, shortest_cycle_is_power_of_four, small_digraphs
from homquery import algorithms as alg
from homquery.analysis import component_count, components_of, gamma, induced_substructure
from homquery.catalog import CATALOG_GUARD, enumerate_digraphs, enumerate_digraphs_upto
from homquery.datalog import NONZERO_NET_CYCLE_PROGRAM, evaluate, parse_program
from homquery.homs import BOOLEAN, COUNT, hom_count
from homquery.oracle import has_directed_cycle, oracle_hom_count
from homquery.query import (
    LEFT,
    RIGHT,
    NonAdaptiveAlgorithm,
    StepLimitExceeded,
    StrategyContractError,
    run_adaptive,
    run_non_adaptive,
)
from homquery.registry import (
    REGISTRY,
    UNARY_PQ_SIG,
    run_registered,
    some_element_in_all_predicates,
)
from homquery.structures import (
    DIGRAPH_SIG,
    GuardExceeded,
    Signature,
    digraph,
    directed_cycle,
    directed_path,
    disjoint_union,
    guards_lifted,
    isomorphic,
    make_structure,
    scalar_multiple,
)


def test_cycle_detector_2query_on_catalog():
    for s in enumerate_digraphs_upto(3):
        report = run_adaptive(alg.cycle_detector_2query(), s, LEFT, max_steps=2)
        assert report.query_count == 2
        assert report.verdict == has_directed_cycle(s)


def test_lovasz_universal_decider():
    strategy = alg.lovasz_universal_decider(shortest_cycle_is_power_of_four)
    for s in enumerate_digraphs_upto(2):
        report = run_adaptive(strategy, s, LEFT, max_steps=20)
        assert report.verdict == shortest_cycle_is_power_of_four(s)
    # past the catalog's guard there are no probes to ask
    with pytest.raises(GuardExceeded, match=r"^enumeration guard: n = 5 > 4$"):
        run_adaptive(strategy, directed_cycle(CATALOG_GUARD + 1), LEFT, max_steps=200)


def test_identify_by_hom_vector_roundtrip():
    probes = enumerate_digraphs_upto(2)
    for h in enumerate_digraphs(2).representatives:
        assert alg.identify_by_hom_vector(hom_vector(probes, h), 2) == h
    with pytest.raises(StrategyContractError):
        alg.identify_by_hom_vector((99,) * len(probes), 2)


def test_identification_contract():
    # vectors one probe short or long, or wrong only at the last probe, match
    # no class; the classes come back in any order of identification
    probes = enumerate_digraphs_upto(3)
    vector = hom_vector(probes, directed_cycle(3))
    wrong_last = vector[:-1] + (vector[-1] + 1,)
    alg._candidate_vectors.cache_clear()
    for answers in (vector[:-1], vector + (0,), wrong_last):
        with pytest.raises(StrategyContractError,
                           match="^no candidate matches the hom vector$"):
            alg.identify_by_hom_vector(answers, 3)
    alg._candidate_vectors.cache_clear()
    for h in reversed(enumerate_digraphs(3).representatives):
        assert alg.identify_by_hom_vector(hom_vector(probes, h), 3) == h


def test_classes_left_after_the_last_probe_fail_to_separate(monkeypatch):
    # with the edgeless singleton as its only probe, all ten 2-vertex
    # classes answer 2
    monkeypatch.setattr(alg, "enumerate_digraphs_upto", lambda n: (alg.EDGELESS_SINGLETON,))
    alg._candidate_vectors.cache_clear()
    with pytest.raises(StrategyContractError,
                       match="^hom vectors failed to separate iso-classes$"):
        alg.identify_by_hom_vector((2,), 2)


def test_lovasz_identification_work_is_pinned(monkeypatch):
    # a cold identification counts only the classes its answers leave open,
    # and identifying again makes none; each vector of a sweep over every
    # class is eliminated on its own, 44,000 counts where the full
    # 116 x 104 table holds 12,064
    probes = enumerate_digraphs_upto(3)
    classes = enumerate_digraphs(3).representatives
    vectors = [hom_vector(probes, h) for h in classes]
    c3 = hom_vector(probes, directed_cycle(3))
    alg._candidate_vectors.cache_clear()
    calls = count_calls(monkeypatch, hom_count)
    assert isomorphic(alg.identify_by_hom_vector(c3, 3), directed_cycle(3))
    assert calls[0] == 385
    calls[0] = 0
    assert isomorphic(alg.identify_by_hom_vector(c3, 3), directed_cycle(3))
    assert calls[0] == 0
    alg._candidate_vectors.cache_clear()
    for h, vector in zip(classes, vectors):
        assert alg.identify_by_hom_vector(vector, 3) == h
    assert calls[0] == 44_000
    calls[0] = 0
    for vector in vectors:
        alg.identify_by_hom_vector(vector, 3)
    assert calls[0] == 0


def test_dn_family():
    (m0, even0), (m2, even2) = alg.dn_family(3, alg.EVEN)
    assert (m0, m2) == (0, 2)
    assert isomorphic(even0, scalar_multiple(8, directed_cycle(1)))
    assert isomorphic(even2, scalar_multiple(2, directed_cycle(4)))
    assert [m for m, _ in alg.dn_family(3, alg.ODD)] == [1, 3]
    with pytest.raises(alg.ParameterError, match=r"^parity must be even or odd, got 'both'$"):
        alg.dn_family(2, "both")
    # n is checked before the parity
    with pytest.raises(alg.ParameterError, match=r"^n must be >= 1, got 0$"):
        alg.dn_family(0, "both")


@pytest.mark.parametrize("build", [
    lambda n: alg.dn_family(n, alg.EVEN),
    lambda n: alg.dn_member(n, 1),
    alg.dn_nonadaptive_separator,
    alg.dn_adaptive_binary_search],
    ids=["dn_family", "dn_member", "dn_nonadaptive_separator", "dn_adaptive_binary_search"])
def test_dn_builders_share_one_guard(build):
    build(alg.DN_GUARD)
    with pytest.raises(GuardExceeded, match=r"^dn guard: n = 7 > 6$"):
        build(alg.DN_GUARD + 1)
    with guards_lifted():
        build(alg.DN_GUARD + 1)
    with pytest.raises(alg.ParameterError, match=r"^n must be >= 1, got 0$"):
        build(0)


def test_dn_separator_and_binsearch_agree():
    for n in (1, 2, 3):
        sep = alg.dn_nonadaptive_separator(n)
        assert len(sep.queries) == n
        search = alg.dn_adaptive_binary_search(n)
        for m in range(n + 1):
            member = scalar_multiple(2 ** (n - m), directed_cycle(2 ** m))
            expected = (m % 2 == 0)
            assert run_non_adaptive(sep, member, LEFT).verdict == expected
            report = run_adaptive(search, member, LEFT, max_steps=n.bit_length())
            assert report.verdict == expected
            assert report.query_count <= n.bit_length()


def test_even_power_cycle_class():
    member = shortest_cycle_is_power_of_four
    assert member(directed_cycle(1))
    assert member(directed_cycle(4))
    assert member(directed_cycle(16))
    assert not member(directed_cycle(2))
    assert not member(directed_cycle(3))
    assert member(directed_path(5))  # cycle-free counts as a member
    assert not member(disjoint_union(directed_cycle(4), directed_cycle(2)))


def test_adaptive_not_better_instance():
    nonadaptive, structures = alg.adaptive_not_better_instance(1, (2, 3))
    assert len(nonadaptive.queries) == 1
    assert len(structures) == 2
    # accepts exactly the first k structures of the family
    for j, s in enumerate(structures):
        assert run_non_adaptive(nonadaptive, s, LEFT).verdict == (j < 1)
    with pytest.raises(ValueError):
        alg.adaptive_not_better_instance(1, (2, 2))
    with pytest.raises(GuardExceeded):
        alg.adaptive_not_better_instance(2, (2, 3, 5, 11))


def test_unary_reconstruction():
    sig = UNARY_PQ_SIG
    subsets = alg.predicate_subsets(sig)
    assert subsets[0] == () and set(subsets[-1]) == {"P", "Q"}
    # element 0: P only, element 1: P and Q, element 2: neither
    s = make_structure(sig, 3, {"P": {(0,), (1,)}, "Q": {(1,)}})
    answers = tuple(hom_count(alg.unary_singleton(sig, sub), s) for sub in subsets)
    exact = alg.reconstruct_unary_counts(sig, answers)
    assert exact[()] == 1 and exact[("P",)] == 1
    assert sum(exact.values()) == 3
    rebuilt = alg.reconstruct_unary_structure(sig, answers)
    assert isomorphic(rebuilt, s)
    with pytest.raises(StrategyContractError):
        alg.reconstruct_unary_structure(sig, (0, 5, 0, 0))


def test_unary_full_decider_decides_everything():
    sig = UNARY_PQ_SIG
    decider = alg.unary_full_decider(sig, some_element_in_all_predicates)
    assert len(decider.queries) == 4
    # every {P,Q}-structure on <= 2 elements
    for n in (1, 2):
        cells = list(itertools.product(range(n)))
        for p_bits in range(2 ** n):
            for q_bits in range(2 ** n):
                s = make_structure(sig, n, {
                    "P": {(i,) for i in range(n) if p_bits >> i & 1},
                    "Q": {(i,) for i in range(n) if q_bits >> i & 1}})
                assert run_non_adaptive(decider, s, LEFT).verdict == some_element_in_all_predicates(s)
    with pytest.raises(ValueError):
        alg.unary_full_decider(Signature((("R", 2),)), some_element_in_all_predicates)


def test_right_separator_weights_separate_every_class():
    # the count table holds every class of n vertices once, at pinned sizes |F_n|
    for n, size in [(1, 2), (2, 28), (3, 463)]:
        separator, table = alg.right_separator(n)
        assert separator.domain_size == size
        classes = enumerate_digraphs(n).representatives
        assert sorted(map(id, table.values())) == sorted(map(id, classes))
    with pytest.raises(GuardExceeded):
        alg.right_separator(alg.RIGHT2Q_SIZE_CAP + 1)
    with pytest.raises(ValueError):
        alg.right_separator(2, Signature((("R", 2), ("P", 1))))


def test_right_separator_table_matches_the_oracle():
    # |F_1| = 2 and |F_2| = 28: the oracle counts into F_n itself, at most
    # 28^2 = 784 maps per class
    for n in (1, 2):
        separator, table = alg.right_separator(n)
        assert {oracle_hom_count(a, separator): a for a in table.values()} == table


def test_right_separator_table_matches_the_product_law():
    # |F_3| = 463 is past the oracle's guard: hom(A, F_3) is the product over
    # the components C of A of sum_i m_i hom(C, H_i) (Lovasz, Large networks
    # and graph limits, AMS 2012, ch. 5), each hom(C, H_i) counted by the oracle
    connected = [h for h in enumerate_digraphs_upto(3) if component_count(h) == 1]
    weighted = list(zip(alg.RIGHT_SEPARATOR_WEIGHTS, connected))
    sums: dict = {}
    for count, a in alg.right_separator(3)[1].items():
        expected = 1
        for keep in components_of(a.domain_size, a.relations.values()):
            c = induced_substructure(a, keep)
            if c not in sums:
                sums[c] = sum(m * oracle_hom_count(c, h) for m, h in weighted)
            expected *= sums[c]
        assert count == expected


def test_right_separator_fill_work_is_pinned(monkeypatch):
    # one hom count into F_n per class of n vertices
    calls = count_calls(monkeypatch, hom_count)
    alg._right_separator.cache_clear()
    for n, cost in [(1, 2), (2, 10), (3, 104)]:
        calls[0] = 0
        alg.right_separator(n)
        assert calls[0] == cost


def test_right_separator_call_forms_share_one_cache_entry():
    alg._right_separator.cache_clear()
    first = alg.right_separator(2)
    assert alg.right_separator(2, DIGRAPH_SIG) is first
    assert alg.right_separator(n=2, sig=DIGRAPH_SIG) is first
    assert alg.brute_force_distinguisher(2, DIGRAPH_SIG) is first
    info = alg._right_separator.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def test_right_separator_weights_that_merge_classes_are_a_contract_error(monkeypatch):
    # with every weight 1, two classes of 2 vertices count the same
    monkeypatch.setattr(alg, "RIGHT_SEPARATOR_WEIGHTS", (1,) * 95)
    alg._right_separator.cache_clear()
    with pytest.raises(StrategyContractError, match="merge two classes of 2 vertices"):
        alg.right_separator(2)
    alg._right_separator.cache_clear()


def test_right2q_contract():
    strategy = alg.right_two_query_decider(has_directed_cycle)
    for first in (0, 1, 3, 6, 12, -4):
        with pytest.raises(StrategyContractError, match=f"first answer {first} is not 2"):
            strategy((first,))
    separator, table = alg.right_separator(2)
    assert strategy((4,)) is separator
    assert 17 not in table
    with pytest.raises(StrategyContractError, match="no class of the input's size counts 17"):
        strategy((4, 17))
    with pytest.raises(GuardExceeded):
        strategy((16,))
    with pytest.raises(GuardExceeded):
        run_registered("right2q", directed_cycle(4))


def test_warm_right2q_makes_only_its_two_hom_counts(monkeypatch):
    # the input is read off the separator's count table, not recounted class
    # by class
    inputs = enumerate_digraphs_upto(2)
    expected = [run_registered("right2q", s) for s in inputs]
    calls = count_calls(monkeypatch, hom_count)
    for s, report in zip(inputs, expected):
        calls[0] = 0
        assert run_registered("right2q", s) == report
        assert calls[0] == 2
    assert [r.verdict for r in expected] == [has_directed_cycle(s) for s in inputs]


def test_repeated_dn_sep_reuses_its_build(monkeypatch):
    # the queries and the accept set, computed with the cycle-union closed
    # form and so with gamma, are built once per n
    member = scalar_multiple(2, directed_cycle(4))
    first = run_registered("dn-sep", member, n=3)
    gamma_calls = count_calls(monkeypatch, gamma)
    assert run_registered("dn-sep", member, n=3) == first
    assert gamma_calls[0] == 0
    assert first.verdict and first.transcript == (0, 0, 8)


@pytest.mark.parametrize("name", ["dn-sep", "dn-binsearch"])
def test_a_build_under_lifted_guards_is_not_reused_outside_them(name):
    n = alg.DN_GUARD + 1
    with pytest.raises(GuardExceeded, match=r"^dn guard: n = 7 > 6$"):
        run_registered(name, directed_cycle(1), n=n)
    with guards_lifted():
        run_registered(name, directed_cycle(1), n=n)
    with pytest.raises(GuardExceeded, match=r"^dn guard: n = 7 > 6$"):
        run_registered(name, directed_cycle(1), n=n)


def test_right_two_query_decider():
    strategy = alg.right_two_query_decider(shortest_cycle_is_power_of_four)
    for s in enumerate_digraphs_upto(2):
        report = run_adaptive(strategy, s, RIGHT, max_steps=2)
        assert report.query_count == 2
        assert report.verdict == shortest_cycle_is_power_of_four(s)


def test_unbounded_boolean_cycle_detector():
    # halts within 2|A| queries, with equality on some input
    strategy = alg.unbounded_boolean_cycle_detector()
    cap = REGISTRY["ub-bool-cycle"].step_cap
    slack = []
    for s in enumerate_digraphs_upto(3):
        report = run_adaptive(strategy, s, LEFT, BOOLEAN, max_steps=cap(s))
        assert report.verdict == has_directed_cycle(s)
        slack.append(2 * s.domain_size - report.query_count)
    assert min(slack) == 0


def test_unbounded_boolean_netcycle_detector():
    # halts within max(|A| - 1, gamma(A) + 1) rounds, with equality on some input
    program = parse_program(NONZERO_NET_CYCLE_PROGRAM)
    strategy = alg.unbounded_boolean_nonzero_net_cycle_detector()
    cap = REGISTRY["ub-bool-netcycle"].step_cap
    slack = []
    for s in enumerate_digraphs_upto(3):
        report = run_adaptive(strategy, s, RIGHT, BOOLEAN, max_steps=cap(s))
        assert report.verdict == (gamma(s) != 0)
        assert report.verdict == evaluate(program, s)
        rounds = (report.query_count + 1) // 2
        slack.append(max(s.domain_size - 1, gamma(s) + 1) - rounds)
    assert min(slack) == 0


def test_registry_entries_run():
    c3 = directed_cycle(3)
    assert run_registered("cycle2q", c3).verdict
    assert not run_registered("cycle2q", directed_path(2)).verdict
    assert run_registered("lovasz", c3).verdict
    assert run_registered("ub-bool-cycle", c3).verdict
    assert run_registered("ub-bool-netcycle", c3).verdict
    assert not run_registered("ub-bool-netcycle", digraph(2, {(0, 1)})).verdict
    member = scalar_multiple(2, directed_cycle(2))
    assert not run_registered("dn-sep", member, n=2).verdict
    assert not run_registered("dn-binsearch", member, n=2).verdict
    assert run_registered("right2q", directed_cycle(1)).verdict
    pq = make_structure(UNARY_PQ_SIG, 2, {"P": {(0,), (1,)}, "Q": {(1,)}})
    assert run_registered("unary-full", pq).verdict
    assert set(REGISTRY) == {"cycle2q", "lovasz", "dn-sep", "dn-binsearch",
                             "unary-full", "right2q", "ub-bool-cycle",
                             "ub-bool-netcycle"}


def test_registry_caps_cover_catalog_runs():
    # each adaptive entry's step cap admits every run its guards admit: a
    # run ends in a verdict or a guard refusal, never at the step cap
    adaptive = [name for name, entry in REGISTRY.items()
                if not isinstance(entry.build(), NonAdaptiveAlgorithm)]
    assert set(adaptive) == {"cycle2q", "lovasz", "dn-binsearch", "right2q",
                             "ub-bool-cycle", "ub-bool-netcycle"}
    refused = set()
    for name in adaptive:
        for s in enumerate_digraphs_upto(3):
            try:
                report = run_registered(name, s)
            except GuardExceeded:
                refused.add((name, s.domain_size))
                continue
            except StepLimitExceeded as exc:
                pytest.fail(f"{name} on {s}: {exc}")
            assert report.query_count <= REGISTRY[name].step_cap(s)
            if name == "lovasz":  # the size, then one count per class up to it
                assert report.query_count == 1 + len(enumerate_digraphs_upto(s.domain_size))
    # no entry refuses here: the catalog's guard is 4 and right2q's cap 3
    assert refused == set()
    with pytest.raises(GuardExceeded, match=r"^enumeration guard: n = 5 > 4$"):
        run_registered("lovasz", directed_cycle(CATALOG_GUARD + 1))


def test_lovasz_decides_up_to_the_catalog_guard():
    # C_4: its size, then one count from each of the 3,160 classes <= 4
    report = run_registered("lovasz", directed_cycle(4))
    assert report.verdict
    assert report.query_count == 3161 == 1 + len(enumerate_digraphs_upto(4))


@settings(max_examples=60, deadline=None)
@given(small_digraphs(max_vertices=3))
def test_detectors_agree_with_oracle(s):
    assert run_registered("cycle2q", s).verdict == has_directed_cycle(s)
    assert run_registered("ub-bool-cycle", s).verdict == has_directed_cycle(s)
    assert run_registered("ub-bool-netcycle", s).verdict == (gamma(s) != 0)
