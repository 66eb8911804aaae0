"""
Enumeration of digraphs up to isomorphism, in a frozen deterministic
order: size ascending, then ascending canonical adjacency mask, where the
canonical mask of a digraph is the minimum over all vertex permutations
of its adjacency bit-mask (bit u*n+v set iff edge (u, v)).

The catalog of size n comes from one ascending scan of the 2^(n*n) masks.
Each mask not yet marked is the minimum of its orbit under the n! vertex
permutations, so it is a representative; its images under every
permutation are marked, and the scan jumps to the next unmarked mask.
Only the representatives are visited: 3,044 of the 65,536 masks for
n = 4.

Both the images and the edges come from per-byte tables, one per byte of
the mask and indexed by that byte's value: the value's images under all
n! permutations, in one list, and its edges, as a tuple of shared edge
tuples.  A permutation moves each bit to one bit, so the images of a
mask's bytes share no bit, and a mask's images are the elementwise sums
of its bytes' image lists; its edges are its bytes' edge tuples joined.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache
from typing import NamedTuple

from .structures import DIGRAPH_SIG, Structure, check_guard

CATALOG_GUARD = 4  # vertices; 5 would scan 2^25 masks under 120 permutations


class IsoClassCatalog(NamedTuple):
    representatives: tuple[Structure, ...]


# Each entry checks the guard, then reads its cached body, so a size built
# inside guards_lifted() is still refused outside it.
def enumerate_digraphs(n: int) -> IsoClassCatalog:
    "All isomorphism classes of digraphs on exactly n vertices."
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    check_guard("enumeration guard: n", n, CATALOG_GUARD)
    return _enumerate_digraphs(n)


def enumerate_digraphs_upto(n: int) -> tuple[Structure, ...]:
    "Iso-class representatives of all digraphs with 1..n vertices, frozen order."
    check_guard("enumeration guard: n", n, CATALOG_GUARD)
    return _enumerate_digraphs_upto(n)


@lru_cache(maxsize=None)
def _enumerate_digraphs(n: int) -> IsoClassCatalog:
    bits = n * n
    perms = list(itertools.permutations(range(n)))
    # bit i's image under each permutation, and its edge (one tuple per edge,
    # shared by every representative that has it)
    bit_images = [[1 << (p[i // n] * n + p[i % n]) for p in perms] for i in range(bits)]
    bit_edges = [(i // n, i % n) for i in range(bits)]
    shifts = range(0, bits, 8)
    # images[k][x], edges[k][x]: the byte at shifts[k] with value x, built
    # from x without its lowest bit
    images: list[list[list[int]]] = []
    edges: list[list[tuple]] = []
    for shift in shifts:
        byte_images, byte_edges = [[0] * len(perms)], [()]
        for x in range(1, 1 << min(8, bits - shift)):
            rest, low = x & (x - 1), shift + (x & -x).bit_length() - 1
            byte_images.append(list(map(operator.add, byte_images[rest], bit_images[low])))
            byte_edges.append((bit_edges[low],) + byte_edges[rest])
        images.append(byte_images)
        edges.append(byte_edges)
    # Scanning in ascending order, the first mask met of each orbit is its
    # minimum; find jumps past the masks already marked as images.
    marked = bytearray(1 << bits)
    higher_bytes = list(zip(shifts[1:], images[1:], edges[1:]))
    reps = []
    mask = 0
    while mask >= 0:
        orbit, mask_edges = images[0][mask & 255], edges[0][mask & 255]
        for shift, byte_images, byte_edges in higher_bytes:
            byte = mask >> shift & 255
            orbit = map(operator.add, orbit, byte_images[byte])
            mask_edges += byte_edges[byte]
        for image in orbit:
            marked[image] = 1
        reps.append(Structure._trusted(DIGRAPH_SIG, n, {"R": mask_edges}))
        mask = marked.find(0, mask + 1)
    return IsoClassCatalog(tuple(reps))


@lru_cache(maxsize=None)
def _enumerate_digraphs_upto(n: int) -> tuple[Structure, ...]:
    out: list[Structure] = []
    for size in range(1, n + 1):
        out.extend(_enumerate_digraphs(size).representatives)
    return tuple(out)
