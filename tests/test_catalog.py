import hashlib
import itertools
import random

import pytest

from conftest import canonical_mask, digraph_to_mask
from homquery.catalog import (
    _enumerate_digraphs,
    _enumerate_digraphs_upto,
    enumerate_digraphs,
    enumerate_digraphs_upto,
)
from homquery.structures import GuardExceeded, digraph, directed_cycle, isomorphic

# iso-class counts for labeled digraphs with loops on n vertices
KNOWN_COUNTS = {1: 2, 2: 10, 3: 104, 4: 3044}


def test_class_counts():
    for n, count in KNOWN_COUNTS.items():
        assert len(enumerate_digraphs(n).representatives) == count
    assert len(enumerate_digraphs_upto(4)) == sum(KNOWN_COUNTS.values())


def test_guard():
    with pytest.raises(GuardExceeded):
        enumerate_digraphs(5)
    with pytest.raises(GuardExceeded):
        enumerate_digraphs_upto(5)


def test_one_cache_entry_per_size():
    # enumerate_digraphs_upto shares enumerate_digraphs' cached body's entries
    _enumerate_digraphs.cache_clear()
    _enumerate_digraphs_upto.cache_clear()
    reps = enumerate_digraphs_upto(4)
    before = _enumerate_digraphs.cache_info()
    catalog = enumerate_digraphs(4)
    after = _enumerate_digraphs.cache_info()
    assert (after.misses, after.hits, after.currsize) == \
        (before.misses, before.hits + 1, before.currsize)
    tail = reps[-len(catalog.representatives):]
    assert all(a is b for a, b in zip(tail, catalog.representatives))


def test_representatives_are_canonical_and_distinct():
    for n in (1, 2, 3):
        reps = enumerate_digraphs(n).representatives
        masks = [digraph_to_mask(r) for r in reps]
        assert masks == sorted(masks)
        assert len(set(masks)) == len(masks)
        for r in reps:
            assert canonical_mask(r) == digraph_to_mask(r)
        # no two representatives are isomorphic
        for a, b in itertools.combinations(reps, 2):
            assert not isomorphic(a, b)


def test_size_four_order_is_pinned():
    # the 3,044 masks of size 4 in catalog order, frozen: a rewrite of the
    # orbit scan must return the same representatives in the same order
    masks = [digraph_to_mask(r) for r in enumerate_digraphs(4).representatives]
    assert all(x < y for x, y in zip(masks, masks[1:]))
    assert hashlib.sha256(",".join(map(str, masks)).encode()).hexdigest() == \
        "acf7f8d5d9e19b282655fdfac33890fcd6bb708e02ff6bb614e05e06cdec8505"


def test_every_digraph_has_a_representative():
    reps3 = {digraph_to_mask(r) for r in enumerate_digraphs(3).representatives}
    rng = random.Random(7)
    pairs = list(itertools.product(range(3), repeat=2))
    for _ in range(1000):
        edges = {p for p in pairs if rng.random() < 0.5}
        assert canonical_mask(digraph(3, edges)) in reps3


def test_frozen_order_is_size_ascending():
    sizes = [d.domain_size for d in enumerate_digraphs_upto(3)]
    assert sizes == sorted(sizes)
    # order is deterministic across calls
    first = [digraph_to_mask(d) for d in enumerate_digraphs_upto(3)]
    _enumerate_digraphs.cache_clear()
    _enumerate_digraphs_upto.cache_clear()
    assert [digraph_to_mask(d) for d in enumerate_digraphs_upto(3)] == first


def test_canonical_mask_is_iso_invariant():
    c3 = directed_cycle(3)
    relabeled = digraph(3, {(1, 0), (0, 2), (2, 1)})
    assert canonical_mask(c3) == canonical_mask(relabeled)
    assert canonical_mask(c3) != canonical_mask(digraph(3, {(0, 1), (1, 2)}))
