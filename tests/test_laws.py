"""
Algebraic laws of hom counts, on sources past the oracle's range.

Sources have 10-64 elements and targets 5-40.  They are built from paths,
cycles and catalog classes by disjoint union, scalar multiple and direct
product, over the digraph signature and over a mixed one with a unary, a
binary and a ternary relation.  The laws compare the engine with itself on
structures whose search plans differ, so a planted engine bug shows as two
sides that disagree.  Every count is also checked in the Boolean semiring:
hom_exists agrees with the count being positive, and find_hom's witness is
a homomorphism.
"""

import random

import pytest

from conftest import relabel
from homquery.analysis import component_count
from homquery.catalog import enumerate_digraphs
from homquery.homs import find_hom, hom_count, hom_exists
from homquery.structures import (
    Signature,
    Structure,
    digraph,
    direct_product,
    directed_cycle,
    directed_path,
    disjoint_union,
    make_structure,
    scalar_multiple,
)

MIXED_SIG = Signature((("U", 1), ("E", 2), ("T", 3)))
KINDS = ("digraph", "mixed")


def checked_count(a: Structure, b: Structure) -> int:
    "hom_count(a, b), once hom_exists and find_hom's witness agree with it."
    count = hom_count(a, b)
    assert hom_exists(a, b) == (count > 0)
    witness = find_hom(a, b)
    assert (witness is not None) == (count > 0)
    if witness is not None:
        assert sorted(witness) == list(a.domain)
        assert all(tuple(witness[e] for e in t) in b.relations[name]
                   for name, ts in a.relations.items() for t in ts)
    return count


# ----------------------------------------------------------- building blocks

def catalog_class(rng, size: int) -> Structure:
    return rng.choice(enumerate_digraphs(size).representatives)


def out_regular(rng, n: int, degree: int) -> Structure:
    "Loopless, every vertex with exactly `degree` out-neighbours."
    return digraph(n, {(u, v) for u in range(n)
                       for v in rng.sample([w for w in range(n) if w != u], degree)})


def random_digraph(rng, n: int, p: float) -> Structure:
    "Each of the n^2 edges, loops included, present with probability p."
    return digraph(n, {(u, v) for u in range(n) for v in range(n) if rng.random() < p})


def mixed(d: Structure, rng, p: float) -> Structure:
    """
    d over MIXED_SIG: E holds d's edges, U each element and T each 2-step
    walk (u, v, w) of d with probability p.
    """
    edges = sorted(d.relations["R"])
    walks = [(u, v, w) for u, v in edges for x, w in edges if x == v]
    return make_structure(MIXED_SIG, d.domain_size, {
        "U": {(e,) for e in d.domain if rng.random() < p},
        "E": edges,
        "T": {t for t in walks if rng.random() < p}})


def reverse(s: Structure) -> Structure:
    "Every tuple of every relation read backwards."
    return make_structure(s.signature, s.domain_size,
                          {name: {t[::-1] for t in ts} for name, ts in s.relations.items()})


def permutation(rng, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


# A thin source reads at most two earlier elements at any point of its search,
# so it is counted quickly into targets of up to 40 elements; a wide one is
# sent only into targets of at most 8.

def thin_sources(rng) -> list[Structure]:
    "Connected first: paths, cycles and C_4 x C_5 = C_20; then unions."
    return [
        directed_path(rng.randint(9, 63)),
        directed_cycle(rng.randint(10, 64)),
        direct_product(directed_cycle(4), directed_cycle(5)),
        disjoint_union(directed_cycle(rng.randint(3, 9)), directed_path(rng.randint(6, 20))),
        scalar_multiple(rng.randint(4, 8), directed_cycle(rng.randint(3, 4))),
        disjoint_union(catalog_class(rng, 3),
                       disjoint_union(catalog_class(rng, 3), directed_path(rng.randint(4, 30)))),
    ]


def wide_sources(rng) -> list[Structure]:
    return [
        direct_product(catalog_class(rng, 3), directed_cycle(4)),
        direct_product(catalog_class(rng, 4), directed_path(2)),
        direct_product(directed_path(3), directed_cycle(3)),
        scalar_multiple(rng.randint(3, 16), catalog_class(rng, 4)),
        disjoint_union(catalog_class(rng, 4),
                       direct_product(catalog_class(rng, 3), catalog_class(rng, 3))),
    ]


def small_targets(rng) -> list[Structure]:
    "5-8 elements."
    return [random_digraph(rng, rng.randint(5, 8), 0.35),
            out_regular(rng, rng.randint(5, 8), 2),
            scalar_multiple(2, directed_cycle(rng.randint(3, 4)))]


def large_targets(rng) -> list[Structure]:
    """
    10-40 elements, sparse: out-degree 1 past 20 elements, so that a cycle's
    search keeps few images of its first element; a DAG among them, so that
    counts from cycles vanish.
    """
    n = rng.randint(10, 20)
    return [out_regular(rng, rng.randint(30, 40), 1),
            out_regular(rng, rng.randint(10, 16), 2),
            digraph(n, {(u, v) for u in range(n) for v in range(u + 1, n)
                        if rng.random() < 2 / n}),
            scalar_multiple(rng.randint(2, 5), directed_cycle(rng.randint(3, 8)))]


def over(kind: str, rng, structures, p: float) -> list[Structure]:
    return structures if kind == "digraph" else [mixed(s, rng, p) for s in structures]


def pairs(kind: str, seed: str):
    "Seeded (source, target) pairs: thin sources with a large target, all with a small one."
    rng = random.Random(f"{seed}:{kind}")
    thin = over(kind, rng, thin_sources(rng), 0.5)
    wide = over(kind, rng, wide_sources(rng), 0.5)
    small = over(kind, rng, small_targets(rng), 0.9)
    large = over(kind, rng, large_targets(rng), 0.9)
    out = [(a, rng.choice(large)) for a in thin]
    out += [(a, rng.choice(small)) for a in thin + wide]
    for a, b in out:
        assert 10 <= a.domain_size <= 64 and 5 <= b.domain_size <= 40
    return rng, out


# ---------------------------------------------------------------------- laws

@pytest.mark.parametrize("kind", KINDS)
def test_product_of_targets(kind):
    # hom(A, B x C) = hom(A, B) * hom(A, C)
    rng, instances = pairs(kind, "product")
    for a, b in instances[::3]:
        if b.domain_size > 8:
            b = over(kind, rng, [out_regular(rng, 8, 2)], 0.9)[0]
        c = over(kind, rng, [out_regular(rng, rng.randint(5, 40 // b.domain_size), 1)], 0.9)[0]
        assert checked_count(a, direct_product(b, c)) == checked_count(a, b) * checked_count(a, c)


@pytest.mark.parametrize("kind", KINDS)
def test_disjoint_union_of_sources(kind):
    # hom(A + A', B) = hom(A, B) * hom(A', B)
    rng, instances = pairs(kind, "source-union")
    for (a, b), (a2, _) in zip(instances, instances[1:] + instances[:1]):
        if a.domain_size + a2.domain_size > 64 or (b.domain_size > 8 and a2.domain_size > 40):
            a2 = over(kind, rng, [directed_path(rng.randint(1, 9))], 0.5)[0]
        union = disjoint_union(a, a2)
        assert checked_count(union, b) == checked_count(a, b) * checked_count(a2, b)


@pytest.mark.parametrize("kind", KINDS)
def test_disjoint_union_of_targets_from_connected_sources(kind):
    # hom(A, B + C) = hom(A, B) + hom(A, C) when A is connected
    rng, instances = pairs(kind, "target-union")
    connected = [(a, b) for a, b in instances if component_count(a) == 1]
    assert len(connected) >= 6
    for a, b in connected:
        c = over(kind, rng, [random_digraph(rng, 5, 0.4)], 0.9)[0]
        if b.domain_size + c.domain_size > 40:
            b = over(kind, rng, [out_regular(rng, 20, 2)], 0.9)[0]
        assert checked_count(a, disjoint_union(b, c)) == checked_count(a, b) + checked_count(a, c)


@pytest.mark.parametrize("kind", KINDS)
def test_scalar_multiple_of_target(kind):
    # hom(A, m.B) = m^c(A) * hom(A, B), c(A) the number of components of A
    rng, instances = pairs(kind, "multiple")
    for a, b in instances:
        if b.domain_size > 20:
            b = over(kind, rng, [out_regular(rng, rng.randint(5, 10), 2)], 0.9)[0]
        m = rng.randint(2, max(2, 24 // b.domain_size))
        expected = m ** component_count(a) * checked_count(a, b)
        assert checked_count(a, scalar_multiple(m, b)) == expected


@pytest.mark.parametrize("kind", KINDS)
def test_reversal(kind):
    # hom(A, B) = hom(A^rev, B^rev), every tuple read backwards on both sides
    _, instances = pairs(kind, "reversal")
    for a, b in instances:
        assert checked_count(reverse(a), reverse(b)) == checked_count(a, b)


@pytest.mark.parametrize("kind", KINDS)
def test_relabelling_either_side(kind):
    rng, instances = pairs(kind, "relabel")
    for a, b in instances:
        count = checked_count(a, b)
        a2 = relabel(a, permutation(rng, a.domain_size))
        b2 = relabel(b, permutation(rng, b.domain_size))
        assert checked_count(a2, b) == count
        assert checked_count(a, b2) == count
