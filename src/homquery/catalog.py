"""
Enumeration of digraphs up to isomorphism, in a frozen deterministic
order: size ascending, then ascending canonical adjacency mask, where the
canonical mask of a digraph is the minimum over all vertex permutations
of its adjacency bit-mask (bit u*n+v set iff edge (u, v)).

The catalog of size n comes from one ascending scan of the 2^(n*n) masks.
Each mask not yet marked is the minimum of its orbit under the n! vertex
permutations, so it is a representative; its images under every
permutation, read byte by byte from precomputed tables, are marked, and
the scan jumps to the next unmarked mask.  Only the representatives are
visited: 3,044 of the 65,536 masks for n = 4.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .structures import DIGRAPH_SIG, Signature, Structure, check_guard, digraph

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
    shifts = range(0, bits, 8)
    # by_byte[k][p][x]: the bits x of the byte at shifts[k], moved by permutation p
    by_byte: list[list[list[int]]] = [[] for _ in shifts]
    for perm in itertools.permutations(range(n)):
        moved = [1 << (perm[i // n] * n + perm[i % n]) for i in range(bits)]
        for shift, tables in zip(shifts, by_byte):
            table = [0] * 256
            for x in range(1, 256):
                low = (x & -x).bit_length() - 1
                if shift + low < bits:
                    table[x] = table[x & (x - 1)] | moved[shift + low]
            tables.append(table)
    # Scanning in ascending order, the first mask met of each orbit is its
    # minimum; find jumps past the masks already marked as images.  A
    # permutation moves each bit to one bit, so the images of a mask's bytes
    # share no bit and adding them ORs them.
    marked = bytearray(1 << bits)
    reps = []
    mask = 0
    while mask >= 0:
        reps.append(mask)
        images = [0] * len(by_byte[0])
        for shift, tables in zip(shifts, by_byte):
            x = mask >> shift & 255
            images = [image + table[x] for image, table in zip(images, tables)]
        for image in images:
            marked[image] = 1
        mask = marked.find(0, mask + 1)
    # one tuple per edge (u, v), shared by every representative that has it
    pairs = tuple((i // n, i % n) for i in range(bits))
    return IsoClassCatalog(
        size=n,
        signature=DIGRAPH_SIG,
        representatives=tuple(digraph(n, [pairs[i] for i in range(bits) if m >> i & 1])
                              for m in reps),
    )


@lru_cache(maxsize=None)
def enumerate_digraphs_upto(n: int) -> tuple[Structure, ...]:
    "Iso-class representatives of all digraphs with 1..n vertices, frozen order."
    out: list[Structure] = []
    for size in range(1, n + 1):
        out.extend(enumerate_digraphs(size).representatives)
    return tuple(out)
