"""
Enumeration of digraphs up to isomorphism, in a frozen deterministic
order: size ascending, then ascending canonical adjacency mask, where the
canonical mask of a digraph is the minimum over all vertex permutations
of its adjacency bit-mask (bit u*n+v set iff edge (u, v)).
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
    # byte_images[p][k][x]: the bits x of the byte at shifts[k], moved by permutation p
    byte_images = []
    for perm in itertools.permutations(range(n)):
        moved = [1 << (perm[i // n] * n + perm[i % n]) for i in range(bits)]
        tables = []
        for shift in shifts:
            table = [0] * 256
            for x in range(1, 256):
                low = (x & -x).bit_length() - 1
                if shift + low < bits:
                    table[x] = table[x & (x - 1)] | moved[shift + low]
            tables.append(table)
        byte_images.append(tables)
    # scanning in ascending order, the first mask met of each orbit is its minimum
    marked = bytearray(1 << bits)
    reps = []
    for mask in range(1 << bits):
        if marked[mask]:
            continue
        reps.append(mask)
        for tables in byte_images:
            image = 0
            for shift, table in zip(shifts, tables):
                image |= table[mask >> shift & 255]
            marked[image] = 1
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
