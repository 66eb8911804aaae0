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
of its bytes' image lists.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache

from .structures import DIGRAPH_SIG, Signature, Structure, check_guard

CATALOG_GUARD = 4  # vertices; 5 would scan 2^25 masks under 120 permutations


@dataclass(frozen=True)
class IsoClassCatalog:
    size: int
    signature: Signature
    representatives: tuple[Structure, ...]


@lru_cache(maxsize=None)
def enumerate_digraphs(n: int) -> IsoClassCatalog:
    "All isomorphism classes of digraphs on exactly n vertices."
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    check_guard("enumeration guard: n", n, CATALOG_GUARD)
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
    reps = []
    mask = 0
    while mask >= 0:
        reps.append(mask)
        orbit = images[0][mask & 255]
        for shift, byte_images in zip(shifts[1:], images[1:]):
            orbit = map(operator.add, orbit, byte_images[mask >> shift & 255])
        for image in orbit:
            marked[image] = 1
        mask = marked.find(0, mask + 1)
    return IsoClassCatalog(
        size=n,
        signature=DIGRAPH_SIG,
        representatives=tuple(
            Structure._trusted(DIGRAPH_SIG, n, {"R": itertools.chain.from_iterable(
                byte_edges[m >> shift & 255] for shift, byte_edges in zip(shifts, edges))})
            for m in reps),
    )


@lru_cache(maxsize=None)
def enumerate_digraphs_upto(n: int) -> tuple[Structure, ...]:
    "Iso-class representatives of all digraphs with 1..n vertices, frozen order."
    out: list[Structure] = []
    for size in range(1, n + 1):
        out.extend(enumerate_digraphs(size).representatives)
    return tuple(out)
