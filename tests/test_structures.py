import dataclasses
import functools
import hashlib
import importlib
import inspect
import itertools
import pkgutil
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import homquery
from conftest import relabel, small_digraphs
from homquery import structures
from homquery.analysis import induced_substructure, star_transform
from homquery.catalog import enumerate_digraphs, enumerate_digraphs_upto
from homquery.datalog import builtin_programs
from homquery.homs import hom_into_cycle_union_formula, hom_into_nary_cycle_union_formula
from homquery.registry import REGISTRY
from homquery.structures import (
    DIGRAPH_SIG,
    LIFTED_GUARD,
    GuardExceeded,
    Signature,
    SignatureMismatch,
    Structure,
    StructureDecodeError,
    canonical_form,
    canonical_key,
    check_guard,
    complete_pair,
    complete_singleton,
    decode_structure,
    digraph,
    direct_product,
    directed_cycle,
    directed_path,
    disjoint_union,
    edges_of,
    encode_structure,
    guards_lifted,
    isomorphic,
    make_structure,
    n_ary_cycle,
    scalar_multiple,
)

MIXED_SIG = Signature((("R", 2), ("P", 1), ("T", 3)))


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature((("R", 2), ("R", 1)))
    with pytest.raises(ValueError):
        Signature((("R", 0),))


def test_signature_freezes_its_relations():
    relations = [["R", 2]]
    sig = Signature(relations)
    assert sig == DIGRAPH_SIG and hash(sig) == hash(DIGRAPH_SIG)
    assert complete_pair(sig) == complete_pair(DIGRAPH_SIG)
    # the caller's list is copied, so changing it later leaves sig as it was
    relations.append(("S", 1))
    relations[0][1] = 3
    assert sig.relations == (("R", 2),) and sig.names == ("R",)
    assert make_structure(sig, 2, {"R": [(0, 1)]}) == digraph(2, [(0, 1)])


def test_structure_freezes_each_tuple():
    built = Structure(DIGRAPH_SIG, 2, {"R": [[0, 1], [1, 1]]})
    assert built == Structure(DIGRAPH_SIG, 2, {"R": ((0, 1), (1, 1))})
    assert built.relations["R"] == {(0, 1), (1, 1)} and hash(built) == hash(digraph(2, built.relations["R"]))


def test_structure_validation():
    with pytest.raises(ValueError):
        make_structure(DIGRAPH_SIG, 0, {"R": set()})
    with pytest.raises(ValueError):
        make_structure(DIGRAPH_SIG, 2, {"R": {(0, 2)}})
    with pytest.raises(ValueError):
        make_structure(DIGRAPH_SIG, 2, {"R": {(0, 1, 1)}})


def test_structure_validation_messages():
    with pytest.raises(ValueError, match=r"^tuple \(0,\) has wrong arity for R$"):
        make_structure(DIGRAPH_SIG, 2, {"R": {(0,)}})
    with pytest.raises(ValueError, match=r"^element of 'R' must be in 0\.\.1, not 5$"):
        make_structure(DIGRAPH_SIG, 2, {"R": {(0, 5)}})
    with pytest.raises(ValueError, match=r"^element of 'R' must be in 0\.\.1, not -1$"):
        make_structure(DIGRAPH_SIG, 2, {"R": {(-1, 0)}})
    # the bad tuple is named among good ones, in every relation
    sig = Signature((("P", 1), ("T", 3)))
    good = {(i, j, k) for i in range(3) for j in range(3) for k in range(3)}
    with pytest.raises(ValueError, match=r"^element of 'T' must be in 0\.\.2, not 3$"):
        make_structure(sig, 3, {"P": {(0,)}, "T": good | {(1, 2, 3)}})
    with pytest.raises(ValueError, match=r"^tuple \(1, 2\) has wrong arity for T$"):
        make_structure(sig, 3, {"P": {(0,)}, "T": good | {(1, 2)}})
    with pytest.raises(ValueError, match=r"^tuple \(\) has wrong arity for P$"):
        make_structure(sig, 3, {"P": {()}, "T": good})
    # the relation map must cover the signature exactly
    with pytest.raises(ValueError, match="^relation map must cover the signature exactly$"):
        make_structure(DIGRAPH_SIG, 2, {"R": set(), "S": set()})
    with pytest.raises(ValueError, match="^relation map must cover the signature exactly$"):
        Structure(sig, 3, {"P": frozenset()})


def test_library_builds_are_checked_in_the_tests():
    # conftest wraps the builders' unchecked constructor in the boundary check
    with pytest.raises(ValueError, match=r"^element of 'R' must be in 0\.\.1, not 5$"):
        Structure._trusted(DIGRAPH_SIG, 2, {"R": [(0, 5)]})
    with pytest.raises(ValueError, match=r"^element of 'R' must be an integer, not 1\.0$"):
        Structure._trusted(DIGRAPH_SIG, 2, {"R": [(0, 1.0)]})
    with pytest.raises(ValueError, match=r"^tuple \(0,\) has wrong arity for R$"):
        Structure._trusted(DIGRAPH_SIG, 2, {"R": [(0,)]})
    with pytest.raises(ValueError, match="^relation map must cover the signature exactly$"):
        Structure._trusted(MIXED_SIG, 2, {"R": [], "P": []})


def test_directed_cycle():
    assert directed_cycle(3).relations["R"] == {(0, 1), (1, 2), (2, 0)}
    assert directed_cycle(1).relations["R"] == {(0, 0)}
    assert directed_cycle(2).relations["R"] == {(0, 1), (1, 0)}
    with pytest.raises(ValueError):
        directed_cycle(0)


def test_directed_path():
    p2 = directed_path(2)
    assert p2.domain_size == 3
    assert p2.relations["R"] == {(0, 1), (1, 2)}
    p0 = directed_path(0)
    assert p0.domain_size == 1 and not p0.relations["R"]
    assert directed_path(1).relations["R"] == {(0, 1)}


def test_n_ary_cycle():
    assert n_ary_cycle(3, 2).relations["R"] == directed_cycle(3).relations["R"]
    assert n_ary_cycle(2, 3).relations["R"] == {(0, 1, 0), (1, 0, 1)}
    loop = n_ary_cycle(1, 2)
    assert loop.domain_size == 1 and loop.relations["R"] == {(0, 0)}


def test_complete_singleton_and_pair():
    assert complete_singleton(DIGRAPH_SIG).relations["R"] == {(0, 0)}
    unary = Signature((("P", 1),))
    assert complete_singleton(unary).relations["P"] == {(0,)}
    ternary = Signature((("T", 3),))
    assert complete_singleton(ternary).relations["T"] == {(0, 0, 0)}

    pair = complete_pair(DIGRAPH_SIG)
    assert len(pair.relations["R"]) == 4
    assert complete_pair(unary).relations["P"] == {(0,), (1,)}
    mixed = Signature((("R", 2), ("P", 1)))
    cp = complete_pair(mixed)
    assert len(cp.relations["R"]) == 4 and len(cp.relations["P"]) == 2


def test_disjoint_union_and_scalar():
    u = disjoint_union(directed_cycle(3), directed_cycle(3))
    assert u.domain_size == 6
    assert u == scalar_multiple(2, directed_cycle(3))
    assert scalar_multiple(2, directed_cycle(2)) == disjoint_union(
        directed_cycle(2), directed_cycle(2))
    assert isomorphic(scalar_multiple(1, directed_cycle(3)), directed_cycle(3))
    assert scalar_multiple(4, directed_cycle(1)).domain_size == 4
    mixed = make_structure(MIXED_SIG, 3, {"R": {(0, 1), (2, 2)}, "P": {(1,)},
                                          "T": {(0, 2, 1), (1, 1, 0)}})
    assert scalar_multiple(3, mixed) == disjoint_union(disjoint_union(mixed, mixed), mixed)
    with pytest.raises(ValueError):
        scalar_multiple(0, directed_cycle(3))
    with pytest.raises(ValueError):
        disjoint_union(directed_cycle(2), complete_singleton(Signature((("P", 1),))))


def test_direct_product():
    c3 = directed_cycle(3)
    with guards_lifted():
        assert isomorphic(direct_product(c3, c3), scalar_multiple(3, c3))
    # complete singleton is a unit
    one = complete_singleton(DIGRAPH_SIG)
    for s in (c3, directed_path(2)):
        assert isomorphic(direct_product(s, one), s)
        assert isomorphic(direct_product(scalar_multiple(2, one), s),
                          scalar_multiple(2, s))
    # row-major indexing is fixed
    p = direct_product(directed_path(1), directed_path(1))
    assert p.relations["R"] == {(0, 3)}


def test_isomorphic():
    c3 = directed_cycle(3)
    relabeled = digraph(3, {(1, 0), (0, 2), (2, 1)})
    assert isomorphic(c3, relabeled)
    assert not isomorphic(c3, directed_path(2))
    assert not isomorphic(directed_cycle(6), scalar_multiple(2, directed_cycle(3)))
    with pytest.raises(GuardExceeded):
        isomorphic(directed_cycle(9), directed_cycle(9))
    with guards_lifted():
        assert isomorphic(directed_cycle(9), directed_cycle(9))


UNARY_POINT = complete_singleton(Signature((("P", 1),)))
TWO_RELATIONS = make_structure(Signature((("R", 2), ("S", 3))), 2, {"R": [(0, 1)], "S": []})


@pytest.mark.parametrize("call, outcome", [
    # unequal sizes answer before the guard on the canonical-key search
    (lambda: isomorphic(directed_cycle(9), directed_cycle(10)), False),
    (lambda: isomorphic(directed_cycle(2), UNARY_POINT),
     (SignatureMismatch, "signature mismatch")),
    (lambda: direct_product(UNARY_POINT, directed_cycle(2)),
     (SignatureMismatch, "signature mismatch")),
    (lambda: edges_of(UNARY_POINT), (ValueError, "expected a digraph (one binary relation)")),
    (lambda: directed_path(-1), (ValueError, "path length must be >= 0")),
    (lambda: n_ary_cycle(0, 2), (ValueError, "d and n must be >= 1")),
    (lambda: star_transform(TWO_RELATIONS),
     (ValueError, "star transform needs exactly one relation")),
    (lambda: hom_into_cycle_union_formula(UNARY_POINT, 1, 1),
     (ValueError, "closed form applies to digraphs")),
    (lambda: hom_into_nary_cycle_union_formula(directed_cycle(2), 1, 0),
     (ValueError, "m and d must be >= 1"))],
    ids=["isomorphic-sizes", "isomorphic-signatures", "direct_product", "edges_of",
         "directed_path", "n_ary_cycle", "star_transform", "cycle-formula", "nary-formula"])
def test_early_answers_and_refusals(call, outcome):
    if isinstance(outcome, tuple):
        error, message = outcome
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()
    else:
        assert call() == outcome


@given(small_digraphs(max_vertices=3), small_digraphs(max_vertices=3))
def test_disjoint_union_commutative_up_to_iso(a, b):
    assert isomorphic(disjoint_union(a, b), disjoint_union(b, a))


@given(small_digraphs(max_vertices=2), small_digraphs(max_vertices=2),
       small_digraphs(max_vertices=2))
def test_disjoint_union_associative_up_to_iso(a, b, c):
    left = disjoint_union(disjoint_union(a, b), c)
    right = disjoint_union(a, disjoint_union(b, c))
    assert isomorphic(left, right)


@given(small_digraphs())
def test_serialization_round_trip(s):
    assert decode_structure(encode_structure(s)) == s


def test_serialization_round_trip_over_a_mixed_signature():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 4)
        rels = {name: {tuple(rng.randrange(n) for _ in range(arity))
                       for _ in range(rng.randint(0, 6))}
                for name, arity in MIXED_SIG.relations}
        s = make_structure(MIXED_SIG, n, rels)
        assert decode_structure(encode_structure(s)) == s


R2 = '"signature": [{"name": "R", "arity": 2}]'


def _arity(value: str) -> str:
    return '{"signature": [{"name": "R", "arity": %s}], "domain": 2}' % value


def _domain(value: str) -> str:
    return '{' + R2 + ', "domain": %s}' % value


def _edge(first: str, second: str) -> str:
    return '{' + R2 + ', "domain": 2, "relations": {"R": [[%s, %s]]}}' % (first, second)


# Each fault as a file and as the Python call that builds the same structure:
# both paths state the rule once, in Signature or Structure, with one message.
FAULTS = [
    ('{"signature": [{"name": 1, "arity": 2}], "domain": 2}', lambda: Signature(((1, 2),)),
     "relation name must be a string, not 1"),
    ('{"signature": [{"name": "R", "arity": 2}, {"name": "R", "arity": 1}], "domain": 2}',
     lambda: Signature((("R", 2), ("R", 1))), "relation 'R' is declared twice"),
    (_arity("true"), lambda: Signature((("R", True),)),
     "arity of 'R' must be an integer, not true"),
    (_arity("1.9"), lambda: Signature((("R", 1.9),)),
     "arity of 'R' must be an integer, not 1.9"),
    (_arity("2.0"), lambda: Signature((("R", 2.0),)),
     "arity of 'R' must be an integer, not 2.0"),
    (_arity("0"), lambda: Signature((("R", 0),)), "arity of 'R' must be >= 1, not 0"),
    (_arity('"2"'), lambda: Signature((("R", "2"),)),
     'arity of \'R\' must be an integer, not "2"'),
    (_domain("2.7"), lambda: digraph(2.7, []), "domain must be an integer, not 2.7"),
    (_domain("true"), lambda: digraph(True, []), "domain must be an integer, not true"),
    (_domain("0"), lambda: make_structure(DIGRAPH_SIG, 0, {}), "domain must be >= 1, not 0"),
    (_edge("true", "0"), lambda: digraph(2, [(True, 0)]),
     "element of 'R' must be an integer, not true"),
    (_edge("0", "1.0"), lambda: digraph(2, [(0, 1.0)]),
     "element of 'R' must be an integer, not 1.0"),
    (_edge("0.5", "1"), lambda: digraph(2, [(0.5, 1)]),
     "element of 'R' must be an integer, not 0.5"),
    (_edge("0", "2"), lambda: make_structure(DIGRAPH_SIG, 2, {"R": [(0, 2)]}),
     "element of 'R' must be in 0..1, not 2"),
    (_edge("0", "-1"), lambda: digraph(2, [(0, -1)]), "element of 'R' must be in 0..1, not -1"),
]


@pytest.mark.parametrize("text, build, message", FAULTS, ids=[m for _, _, m in FAULTS])
def test_a_fault_has_one_message_in_a_file_and_in_python(text, build, message):
    with pytest.raises(StructureDecodeError) as from_file:
        decode_structure(text)
    with pytest.raises(ValueError) as from_python:
        build()
    assert str(from_file.value) == str(from_python.value) == message


def test_a_value_no_file_can_hold_is_named_by_its_repr():
    # JSON has no set, so only a Python call can pass one
    with pytest.raises(ValueError, match=r"^domain must be an integer, not \{1\}$"):
        Structure(DIGRAPH_SIG, {1}, {"R": []})


def test_a_bool_or_float_beside_an_equal_int_is_still_refused():
    # equal tuples collapse in a set: the check must see them before they do
    for edges in ([(1, 1), (True, 1)], [(0, 1), (0, 1.0)]):
        with pytest.raises(ValueError, match="must be an integer"):
            digraph(2, edges)
    with pytest.raises(StructureDecodeError, match="must be an integer, not true"):
        decode_structure('{' + R2 + ', "domain": 2, "relations": {"R": [[1, 1], [true, 1]]}}')


def test_serialization_format_fields():
    import json
    doc = json.loads(encode_structure(directed_cycle(2)))
    assert set(doc) == {"signature", "domain", "relations"}
    assert doc["signature"] == [{"name": "R", "arity": 2}]
    assert doc["domain"] == 2
    assert doc["relations"]["R"] == [[0, 1], [1, 0]]  # lexicographic


def test_canonical_form_is_invariant():
    c3 = directed_cycle(3)
    relabeled = digraph(3, {(1, 0), (0, 2), (2, 1)})
    assert canonical_form(c3) == canonical_form(relabeled)


def test_canonical_key_separates_catalog_classes_and_ignores_labels():
    reps = enumerate_digraphs_upto(4)
    assert len({(r.domain_size, canonical_key(r)) for r in reps}) == len(reps)
    rng = random.Random(11)
    for r in reps[::5]:
        perm = list(r.domain)
        rng.shuffle(perm)
        shuffled = relabel(r, perm)
        assert canonical_key(shuffled) == canonical_key(r)
        assert canonical_form(shuffled) == canonical_form(r)
        assert isomorphic(canonical_form(r), r)


def test_symmetric_inputs_past_the_factorial_range():
    # vertex-transitive inputs of 8 to 12 elements: refinement alone leaves them one
    # colour class, and a search of all their relabelings takes 8! to 12! steps
    rng = random.Random(5)
    c3, c4, c6 = directed_cycle(3), directed_cycle(4), directed_cycle(6)
    complete = digraph(8, {(u, v) for u in range(8) for v in range(8) if u != v})
    pairs = [(directed_cycle(12), directed_cycle(12)),
             (scalar_multiple(3, c4), scalar_multiple(3, c4)),
             (complete, complete),
             (scalar_multiple(8, directed_cycle(1)), scalar_multiple(8, directed_cycle(1))),
             (direct_product(c3, c3), scalar_multiple(3, c3))]
    with guards_lifted():
        for a, b in pairs:
            perm = list(b.domain)
            rng.shuffle(perm)
            shuffled = relabel(b, perm)
            assert canonical_key(shuffled) == canonical_key(a)
            assert isomorphic(a, shuffled)
        assert canonical_key(directed_cycle(12)) != canonical_key(scalar_multiple(2, c6))
        assert not isomorphic(directed_cycle(12), scalar_multiple(2, c6))


# sha256 of repr(keys) below; a pruning change that keeps the leaf keys keeps it
CANONICAL_KEYS_DIGEST = "4137c3c3d5b5c57f3f9207c3f0ea12da6579204a63efb1d03e9b1a963da5aac7"


def test_canonical_keys_match_a_frozen_digest():
    # every catalog <= 4 class, then 200 shuffled unions of 2 to 5 catalog <= 3
    # classes, one of them repeated, on at most 15 elements: 3,360 keys
    keys = [canonical_key(r) for r in enumerate_digraphs_upto(4)]
    small = enumerate_digraphs_upto(3)
    rng = random.Random(30)
    unions = []
    while len(unions) < 200:
        parts = rng.choices(small, k=rng.randint(1, 4))
        parts.append(rng.choice(parts))
        if sum(p.domain_size for p in parts) <= 15:
            union = functools.reduce(disjoint_union, parts)
            perm = list(union.domain)
            rng.shuffle(perm)
            unions.append(relabel(union, perm))
    with guards_lifted():
        keys += [canonical_key(u) for u in unions]
    assert hashlib.sha256(repr(keys).encode()).hexdigest() == CANONICAL_KEYS_DIGEST


def test_unions_of_equal_parts_take_few_refinements(monkeypatch):
    # each node of the search is one _refine call; a repeated leaf key cuts its
    # subtree, so m copies of C_k do not cost k^m * m! leaves
    calls = []
    refine = structures._refine

    def counted(*args):
        calls.append(args)
        return refine(*args)

    monkeypatch.setattr(structures, "_refine", counted)
    rng = random.Random(6)
    with guards_lifted():
        for m, k, refinements in [(4, 4, 115), (5, 3, 156), (6, 2, 168), (6, 4, 350)]:
            union = scalar_multiple(m, directed_cycle(k))
            calls.clear()
            key = canonical_key(union)
            assert len(calls) == refinements, (m, k)
            perm = list(union.domain)
            rng.shuffle(perm)
            assert canonical_key(relabel(union, perm)) == key


def _isomorphic_by_all_permutations(a, b):
    "Reference: some domain permutation carries a onto b."
    return a.domain_size == b.domain_size and any(
        relabel(a, perm) == b for perm in itertools.permutations(a.domain))


@st.composite
def mixed_pairs(draw):
    """
    A mixed-signature structure and a relabeled copy of it, unchanged, with
    one fact toggled, or with two elements swapped in one relation only
    (which keeps every element's slots when the two share them).
    """
    n = draw(st.integers(1, 5))
    rels = {name: draw(st.sets(st.tuples(*[st.integers(0, n - 1)] * arity), max_size=5))
            for name, arity in MIXED_SIG.relations}
    a = make_structure(MIXED_SIG, n, rels)
    name, arity = draw(st.sampled_from(MIXED_SIG.relations))
    change = draw(st.sampled_from(["none", "toggle", "swap"]))
    if change == "toggle":
        rels[name] = rels[name] ^ {draw(st.tuples(*[st.integers(0, n - 1)] * arity))}
    elif change == "swap":
        x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        swap = {x: y, y: x}
        rels[name] = {tuple(swap.get(e, e) for e in t) for t in rels[name]}
    b = relabel(make_structure(MIXED_SIG, n, rels), draw(st.permutations(range(n))))
    return a, b


# same element profiles, R equal, T crossed against parallel: not isomorphic
@example((make_structure(MIXED_SIG, 4, {"R": {(0, 2), (1, 3)}, "T": {(0, 3, 3), (1, 2, 2)}}),
          make_structure(MIXED_SIG, 4, {"R": {(0, 2), (1, 3)}, "T": {(0, 2, 2), (1, 3, 3)}})))
@settings(max_examples=300, deadline=None)
@given(mixed_pairs())
def test_isomorphic_and_canonical_key_match_all_permutations(pair):
    a, b = pair
    expected = _isomorphic_by_all_permutations(a, b)
    assert isomorphic(a, b) == expected
    assert (canonical_key(a) == canonical_key(b)) == expected


def test_relations_are_read_only():
    s = directed_cycle(3)
    with pytest.raises(TypeError):
        s.relations["R"] = frozenset()
    with pytest.raises(TypeError):
        del s.relations["R"]
    # the caller's dict is copied, so changing it later leaves s as it was
    rels = {"R": frozenset({(0, 1)})}
    t = Structure(DIGRAPH_SIG, 2, rels)
    rels["R"] = frozenset()
    assert t.relations["R"] == {(0, 1)}
    # so are the library's own builds, and the unchecked constructor copies too
    edges = {(0, 1)}
    rels = {"R": edges}
    built = Structure._trusted(DIGRAPH_SIG, 2, rels)
    edges.add((1, 0))
    rels["R"] = frozenset()
    assert built.relations["R"] == {(0, 1)}
    for u in (enumerate_digraphs(3).representatives[-1],
              induced_substructure(directed_cycle(4), [0, 1, 2]), built):
        before = (u.domain_size, dict(u.relations))
        with pytest.raises(TypeError):
            u.relations["R"] = frozenset()
        with pytest.raises(TypeError):
            del u.relations["R"]
        with pytest.raises(AttributeError):
            u.relations["R"].add((0, 0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            u.domain_size = 9
        assert (u.domain_size, dict(u.relations)) == before
    # equal structures still compare and hash equal
    same = digraph(3, {(2, 0), (0, 1), (1, 2)})
    assert s == same and hash(s) == hash(same)
    assert s != directed_cycle(4)
    assert len({s, same, directed_path(2)}) == 2


def test_probe_constructors_share_one_read_only_structure_per_argument():
    equal_signature = Signature((("R", 2),))
    assert equal_signature is not DIGRAPH_SIG
    for make, arg, same_arg in ((directed_path, 3, 3), (directed_cycle, 4, 4),
                                (complete_pair, DIGRAPH_SIG, equal_signature)):
        shared = make(arg)
        assert make(same_arg) is shared
        edges = set(shared.relations["R"])
        with pytest.raises(TypeError):
            shared.relations["R"] = frozenset()
        with pytest.raises(AttributeError):
            shared.relations["R"].add((0, 0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            shared.domain_size = 9
        assert make(arg).relations["R"] == edges
    assert directed_cycle(4) is not directed_cycle(5)
    assert directed_path(3) is not directed_path(4)
    assert complete_pair(Signature((("P", 1),))) is not complete_pair(DIGRAPH_SIG)


def test_records_are_immutable():
    program = builtin_programs()["directed-cycle"]
    rule, plan = program.rules[1], program.delta_plans[0]
    for record, name in ((rule.head, "predicate"), (rule, "body"), (plan, "steps"),
                         (plan.steps[0], "source"), (REGISTRY["lovasz"], "step_cap"),
                         (enumerate_digraphs(2), "representatives")):
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        assert getattr(record, name) is before


def test_check_guard_and_guards_lifted():
    check_guard("demo guard: n", 4, 4)
    with pytest.raises(GuardExceeded, match=r"^demo guard: n = 5 > 4$"):
        check_guard("demo guard: n", 5, 4)
    with guards_lifted():
        check_guard("demo guard: n", 5, 4)
        with guards_lifted():
            pass
        # a nested lift ends without ending the outer one
        check_guard("demo guard: n", LIFTED_GUARD, 4)
        with pytest.raises(GuardExceeded, match=f"> {LIFTED_GUARD}$"):
            check_guard("demo guard: n", LIFTED_GUARD + 1, 4)
    with pytest.raises(GuardExceeded):
        check_guard("demo guard: n", 5, 4)


def _public_callables():
    "Every public function, class and method defined in a homquery module."
    for info in pkgutil.iter_modules(homquery.__path__):
        module = importlib.import_module(f"homquery.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                yield f"{module.__name__}.{name}", obj
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and callable(member):
                        yield f"{module.__name__}.{name}.{attr}", member
            elif callable(obj):
                yield f"{module.__name__}.{name}", obj


def test_no_public_callable_takes_a_guard():
    # size guards are module constants checked by structures.check_guard and
    # lifted by structures.guards_lifted, not per-call parameters
    seen = 0
    for qualname, obj in _public_callables():
        try:
            parameters = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        seen += 1
        assert "guard" not in parameters, qualname
    assert seen > 50
