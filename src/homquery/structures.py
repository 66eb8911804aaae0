"""
Finite relational structures: signatures, constructors, combinators,
isomorphism testing and canonical forms by relabeling within blocks of
elements of equal profile (the (relation, position) slots an element
occupies), and (de)serialization.

Elements are always the canonical integers 0..n-1.  All values are
immutable; every operation returns a fresh structure.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field


class GuardExceeded(Exception):
    """A desk-scale size guard was hit; pass a larger guard to override."""


@dataclass(frozen=True)
class Signature:
    # ordered (name, arity) pairs; names distinct, arities >= 1
    relations: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [name for name, _ in self.relations]
        if len(set(names)) != len(names):
            raise ValueError("relation names must be pairwise distinct")
        for name, arity in self.relations:
            if arity < 1:
                raise ValueError(f"arity of {name} must be >= 1")

    def arity(self, name: str) -> int:
        for rel_name, arity in self.relations:
            if rel_name == name:
                return arity
        raise KeyError(name)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.relations)


DIGRAPH_SIG = Signature((("R", 2),))


@dataclass(frozen=True)
class Structure:
    signature: Signature
    domain_size: int
    relations: dict[str, frozenset[tuple[int, ...]]] = field(hash=False)

    def __post_init__(self):
        if self.domain_size < 1:
            raise ValueError("domain must be non-empty")
        if set(self.relations) != set(self.signature.names):
            raise ValueError("relation map must cover the signature exactly")
        for name, arity in self.signature.relations:
            for t in self.relations[name]:
                if len(t) != arity:
                    raise ValueError(f"tuple {t} has wrong arity for {name}")
                if any(not (0 <= e < self.domain_size) for e in t):
                    raise ValueError(f"tuple {t} out of domain range")

    @property
    def domain(self) -> range:
        return range(self.domain_size)

    def tuples(self, name: str) -> frozenset[tuple[int, ...]]:
        return self.relations[name]

    def facts(self):
        "All (relation name, tuple) pairs, in deterministic order."
        for name in self.signature.names:
            for t in sorted(self.relations[name]):
                yield name, t

    def is_digraph(self) -> bool:
        return len(self.signature.relations) == 1 and self.signature.relations[0][1] == 2

    def __eq__(self, other):
        return (
            isinstance(other, Structure)
            and self.signature == other.signature
            and self.domain_size == other.domain_size
            and self.relations == other.relations
        )

    def __hash__(self):
        # cheap label-insensitive summary, compatible with __eq__
        sizes = tuple(len(self.relations[n]) for n in self.signature.names)
        return hash((self.signature, self.domain_size, sizes))

    def __repr__(self):
        rels = {name: sorted(ts) for name, ts in self.relations.items()}
        return f"Structure(n={self.domain_size}, {rels})"


def make_structure(signature: Signature, domain_size: int,
                   relations: dict[str, object]) -> Structure:
    frozen = {name: frozenset(tuple(t) for t in tuples)
              for name, tuples in relations.items()}
    for name in signature.names:
        frozen.setdefault(name, frozenset())
    return Structure(signature, domain_size, frozen)


def digraph(domain_size: int, edges) -> Structure:
    return make_structure(DIGRAPH_SIG, domain_size, {"R": edges})


def edges_of(d: Structure) -> frozenset[tuple[int, int]]:
    if not d.is_digraph():
        raise ValueError("expected a digraph (one binary relation)")
    return d.relations[d.signature.names[0]]


def directed_cycle(n: int) -> Structure:
    "The directed cycle on n vertices; n=1 is a single loop."
    if n < 1:
        raise ValueError("cycle length must be >= 1")
    return digraph(n, {(i, (i + 1) % n) for i in range(n)})


def directed_path(n: int) -> Structure:
    "The directed path with n edges on n+1 vertices; n=0 is an edgeless point."
    if n < 0:
        raise ValueError("path length must be >= 0")
    return digraph(n + 1, {(i, i + 1) for i in range(n)})


def n_ary_cycle(d: int, n: int) -> Structure:
    """
    Domain {0..d-1} with one n-ary relation holding the d tuples
    (i, i+1, ..., i+n-1) mod d.
    """
    if d < 1 or n < 1:
        raise ValueError("d and n must be >= 1")
    sig = Signature((("R", n),))
    tuples = {tuple((i + j) % d for j in range(n)) for i in range(d)}
    return make_structure(sig, d, {"R": tuples})


def complete_singleton(sig: Signature) -> Structure:
    "One element; every relation holds on the all-zero tuple."
    return make_structure(sig, 1, {name: {(0,) * arity} for name, arity in sig.relations})


def complete_pair(sig: Signature) -> Structure:
    "Two elements; each relation of arity m holds on all 2^m tuples."
    return make_structure(
        sig, 2,
        {name: set(itertools.product((0, 1), repeat=arity))
         for name, arity in sig.relations})


def disjoint_union(a: Structure, b: Structure) -> Structure:
    if a.signature != b.signature:
        raise ValueError("signature mismatch")
    shift = a.domain_size
    rels = {name: set(a.relations[name]) |
            {tuple(e + shift for e in t) for t in b.relations[name]}
            for name in a.signature.names}
    return make_structure(a.signature, a.domain_size + b.domain_size, rels)


def scalar_multiple(m: int, h: Structure) -> Structure:
    "m disjoint copies of h; m=0 is rejected (structures are non-empty)."
    if m < 1:
        raise ValueError("multiplier must be >= 1")
    out = h
    for _ in range(m - 1):
        out = disjoint_union(out, h)
    return out


def direct_product(a: Structure, b: Structure) -> Structure:
    """
    Componentwise product.  The pair (x, y) gets the fixed row-major
    index x*|B| + y so product structures are reproducible.
    """
    if a.signature != b.signature:
        raise ValueError("signature mismatch")
    nb = b.domain_size
    rels = {}
    for name in a.signature.names:
        rels[name] = {
            tuple(ta[i] * nb + tb[i] for i in range(len(ta)))
            for ta in a.relations[name] for tb in b.relations[name]}
    return make_structure(a.signature, a.domain_size * nb, rels)


def relabel(s: Structure, perm) -> Structure:
    "Apply the domain permutation perm (element i becomes perm[i])."
    rels = {name: {tuple(perm[e] for e in t) for t in ts}
            for name, ts in s.relations.items()}
    return make_structure(s.signature, s.domain_size, rels)


def _blocks(s: Structure) -> tuple[tuple, list[list[int]]]:
    """
    Isomorphism-invariant partition of the domain.  An element's profile
    is the sorted multiset of (relation, position) slots it occupies;
    elements of equal profile form a block, blocks in ascending profile
    order.  Returns ((profile, block size) per block, the blocks).
    """
    slots: list[list[tuple[str, int]]] = [[] for _ in s.domain]
    for name, ts in s.relations.items():
        for t in ts:
            for i, e in enumerate(t):
                slots[e].append((name, i))
    groups: dict[tuple, list[int]] = {}
    for e in s.domain:
        groups.setdefault(tuple(sorted(slots[e])), []).append(e)
    profiles = sorted(groups)
    return (tuple((p, len(groups[p])) for p in profiles),
            [groups[p] for p in profiles])


def _block_maps(blocks, images, size: int):
    """
    Lazily yield every map (a list indexed by element) sending each block
    bijectively onto the same-index entry of images.  The yielded list is
    reused between steps; copy it to keep it.
    """
    perm = [0] * size

    def extend(k):
        if k == len(blocks):
            yield perm
            return
        for order in itertools.permutations(images[k]):
            for e, image in zip(blocks[k], order):
                perm[e] = image
            yield from extend(k + 1)
    return extend(0)


def canonical_key(s: Structure) -> tuple:
    """
    The least relation key (each relation's sorted tuples, in signature
    order) over the relabelings that send the i-th block onto the i-th
    run of consecutive labels.  Isomorphism-invariant; with the domain
    size it determines s up to isomorphism.
    """
    _, blocks = _blocks(s)
    runs, start = [], 0
    for block in blocks:
        runs.append(range(start, start + len(block)))
        start += len(block)
    rels = [s.relations[name] for name in s.signature.names]
    return min(tuple(tuple(sorted(tuple(perm[e] for e in t) for t in ts)) for ts in rels)
               for perm in _block_maps(blocks, runs, s.domain_size))


def canonical_form(s: Structure) -> Structure:
    "The relabeling of s whose relations give canonical_key(s)."
    return _structure_of_key(s.signature, s.domain_size, canonical_key(s))


@functools.lru_cache(maxsize=1024)
def _structure_of_key(signature: Signature, domain_size: int, key: tuple) -> Structure:
    "One shared structure per canonical key, so kept canonical forms share memory."
    return make_structure(signature, domain_size, dict(zip(signature.names, key)))


def isomorphic(a: Structure, b: Structure, guard: int = 8) -> bool:
    "Search of the bijections preserving the element profiles; guarded to small domains."
    if a.signature != b.signature:
        raise ValueError("signature mismatch")
    if a.domain_size != b.domain_size:
        return False
    if any(len(a.relations[n]) != len(b.relations[n]) for n in a.signature.names):
        return False
    if a.domain_size > guard:
        raise GuardExceeded(f"isomorphism guard: |A| = {a.domain_size} > {guard}")
    profiles_a, blocks_a = _blocks(a)
    profiles_b, blocks_b = _blocks(b)
    if profiles_a != profiles_b:
        return False
    pairs = [(a.relations[name], b.relations[name]) for name in a.signature.names]
    return any(all({tuple(perm[e] for e in t) for t in ta} == tb for ta, tb in pairs)
               for perm in _block_maps(blocks_a, blocks_b, a.domain_size))


def encode_structure(s: Structure) -> str:
    "Stable JSON text form: signature, domain, lexicographically sorted tuples."
    doc = {
        "signature": [{"name": name, "arity": arity}
                      for name, arity in s.signature.relations],
        "domain": s.domain_size,
        "relations": {name: [list(t) for t in sorted(s.relations[name])]
                      for name in s.signature.names},
    }
    return json.dumps(doc, indent=2) + "\n"


class StructureDecodeError(ValueError):
    "A structure document that is not JSON or does not describe a structure."


def _unique_keys(pairs):
    seen = set()
    for k, _ in pairs:
        if k in seen:
            raise StructureDecodeError(f"duplicate key {k!r}")
        seen.add(k)
    return dict(pairs)


def _integer(value, what: str, low: int, high: int | None = None) -> int:
    # bool is an int subclass: true must not read as 1
    if type(value) is not int:
        raise StructureDecodeError(f"{what} must be an integer, not {json.dumps(value)}")
    if value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in {low}..{high}"
        raise StructureDecodeError(f"{what} must be {bound}, not {value}")
    return value


_JSON_KINDS = {dict: "an object", list: "a list", str: "a string"}


def _typed(value, kind: type, what: str):
    if not isinstance(value, kind):
        raise StructureDecodeError(f"{what} must be {_JSON_KINDS[kind]}, not {json.dumps(value)}")
    return value


def _object(value, what: str, keys: set[str], optional: set[str] = frozenset()) -> dict:
    _typed(value, dict, what)
    missing = sorted(keys - value.keys())
    if missing:
        raise StructureDecodeError(f"{what} has no {missing[0]!r}")
    unknown = sorted(value.keys() - keys - optional)
    if unknown:
        raise StructureDecodeError(f"{what} has unknown key {unknown[0]!r}")
    return value


def decode_structure(text: str) -> Structure:
    """
    Read encode_structure's JSON form.  Anything else raises
    StructureDecodeError with a one-line message, nothing is coerced:
    invalid JSON, duplicate or unknown keys, a boolean or non-integer where
    an integer belongs, a repeated relation name, a relation outside the
    signature, a tuple of the wrong arity or an element outside the domain.
    """
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise StructureDecodeError(f"invalid JSON: {exc}") from None
    _object(doc, "structure", {"signature", "domain"}, {"relations"})
    arities: dict[str, int] = {}
    for r in _typed(doc["signature"], list, "signature"):
        name = _typed(_object(r, "signature entry", {"name", "arity"})["name"], str,
                      "relation name")
        if name in arities:
            raise StructureDecodeError(f"relation {name!r} is declared twice")
        arities[name] = _integer(r["arity"], f"arity of {name!r}", 1)
    domain_size = _integer(doc["domain"], "domain", 1)
    rels = {}
    for name, tuples in _typed(doc.get("relations", {}), dict, "relations").items():
        if name not in arities:
            raise StructureDecodeError(f"relation {name!r} is not in the signature")
        rel = set()
        for t in _typed(tuples, list, f"relation {name!r}"):
            if not isinstance(t, list) or len(t) != arities[name]:
                raise StructureDecodeError(
                    f"relation {name!r}: {json.dumps(t)} is not a list of {arities[name]} elements")
            rel.add(tuple(_integer(e, f"element of {name!r}", 0, domain_size - 1) for e in t))
        rels[name] = rel
    return make_structure(Signature(tuple(arities.items())), domain_size, rels)
