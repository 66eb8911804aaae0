"""
Finite relational structures: signatures, constructors, combinators,
(de)serialization, and canonical forms from one individualization-
refinement search, which also decides isomorphism.

Elements are always the canonical integers 0..n-1.  All values are
immutable (Signature and Structure freeze copies of what they are given;
a structure's relations are frozensets behind a read-only mapping, set
once as it is made), so a structure may be shared: the probe-family
constructors (directed_cycle, directed_path, complete_pair) return one
object per argument, and canonical_form one per canonical key.  The
combinators build a new structure on each call.  homs keeps a structure's
parts on the object, outside its fields, so equality, hash, repr and
encode_structure never see them.

A structure is checked once, where it enters the library: Signature
checks names (strings, each declared once) and arities (ints >= 1), and
Structure(...), make_structure and digraph the domain size (an int >= 1),
the relation map (the signature's exactly) and each tuple (its arity, ints
in 0..n-1).  A bool or float is never read as an int.  decode_structure
adds only JSON's rules and the DOMAIN_GUARD; the library's own builders
skip the check.
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
import functools
import itertools
import json
from dataclasses import dataclass, field
from types import MappingProxyType


class GuardExceeded(Exception):
    "A desk-scale size guard was hit; guards_lifted() (--guard-override) lifts them all."


LIFTED_GUARD = 10 ** 9  # every guard's limit inside guards_lifted()
_guards_lifted = contextvars.ContextVar("guards_lifted", default=False)


def guard_limit(limit: int) -> int:
    "A guard's limit in force: LIFTED_GUARD within guards_lifted(), else limit."
    return LIFTED_GUARD if _guards_lifted.get() else limit


def check_guard(what: str, value: int, limit: int) -> None:
    "The one size-guard check: raise GuardExceeded when value passes limit."
    limit = guard_limit(limit)
    if value > limit:
        raise GuardExceeded(f"{what} = {value} > {limit}")


@contextlib.contextmanager
def guards_lifted():
    "Lift every check_guard limit to LIFTED_GUARD within the block."
    token = _guards_lifted.set(True)
    try:
        yield
    finally:
        _guards_lifted.reset(token)


class SignatureMismatch(ValueError):
    "Two structures that must share a signature do not."


def _shown(value) -> str:
    "A value as a structure file writes it, or by repr when JSON has no form for it."
    try:
        return json.dumps(value)
    except (TypeError, ValueError):
        return repr(value)


def _integer(value, what: str, low: int, high: int | None = None) -> int:
    # bool is an int subclass: True must not read as 1
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, not {_shown(value)}")
    if value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{what} must be {bound}, not {value}")
    return value


@dataclass(frozen=True)
class Signature:
    # ordered (name, arity) pairs; names distinct strings, arities ints >= 1
    relations: tuple[tuple[str, int], ...]
    # the relation names in order, computed once: every hom count reads them
    names: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "relations", tuple(map(tuple, self.relations)))
        names = []
        for name, arity in self.relations:
            if not isinstance(name, str):
                raise ValueError(f"relation name must be a string, not {_shown(name)}")
            if name in names:
                raise ValueError(f"relation {name!r} is declared twice")
            names.append(name)
            _integer(arity, f"arity of {name!r}", 1)
        object.__setattr__(self, "names", tuple(names))


DIGRAPH_SIG = Signature((("R", 2),))


@dataclass(frozen=True)
class Structure:
    signature: Signature
    domain_size: int
    # stored as a read-only view of a private copy
    relations: MappingProxyType[str, frozenset[tuple[int, ...]]] = field(hash=False)

    def __post_init__(self):
        # checked before freezing, so a True or 1.0 beside an equal 1 is still seen
        relations = {name: tuple(map(tuple, ts)) for name, ts in self.relations.items()}
        self._check(relations)
        self.__dict__["relations"] = MappingProxyType(
            {name: frozenset(ts) for name, ts in relations.items()})

    @classmethod
    def _trusted(cls, signature: Signature, domain_size: int, relations) -> Structure:
        "Frozen but not checked: for builders whose relation maps are right by construction."
        s = object.__new__(cls)
        # one step, past the frozen __setattr__: the catalog <= 4 builds 3,160 of these
        s.__dict__.update(signature=signature, domain_size=domain_size, relations=MappingProxyType(
            {name: frozenset(ts) for name, ts in relations.items()}))
        return s

    def _check(self, relations):
        n = _integer(self.domain_size, "domain", 1)
        if relations.keys() != set(self.signature.names):
            raise ValueError("relation map must cover the signature exactly")
        for name, arity in self.signature.relations:
            ts = relations[name]
            if not ts:
                continue
            elements = tuple(itertools.chain.from_iterable(ts))
            if (set(map(len, ts)) == {arity} and set(map(type, elements)) == {int}
                    and 0 <= min(elements) and max(elements) < n):
                continue
            for t in ts:  # some tuple or element is bad: name the first one
                if len(t) != arity:
                    raise ValueError(f"tuple {t} has wrong arity for {name}")
                for e in t:
                    _integer(e, f"element of {name!r}", 0, n - 1)

    @property
    def domain(self) -> range:
        return range(self.domain_size)

    def is_digraph(self) -> bool:
        return len(self.signature.relations) == 1 and self.signature.relations[0][1] == 2

    def __hash__(self):
        # cheap label-insensitive summary, compatible with __eq__
        sizes = tuple(len(self.relations[n]) for n in self.signature.names)
        return hash((self.signature, self.domain_size, sizes))

    def __repr__(self):
        rels = {name: sorted(ts) for name, ts in self.relations.items()}
        return f"Structure(n={self.domain_size}, {rels})"


def make_structure(signature: Signature, domain_size: int,
                   relations: dict[str, object]) -> Structure:
    rels = dict(relations)
    for name in signature.names:
        rels.setdefault(name, ())
    return Structure(signature, domain_size, rels)


def digraph(domain_size: int, edges) -> Structure:
    return make_structure(DIGRAPH_SIG, domain_size, {"R": edges})


def edges_of(d: Structure) -> frozenset[tuple[int, int]]:
    if not d.is_digraph():
        raise ValueError("expected a digraph (one binary relation)")
    return d.relations[d.signature.names[0]]


# The bound of every bounded cache in the library: those keyed on relation
# contents (homs' plans, table sets, parts and cycle invariants, datalog's
# EDB indexes, canonical forms; no entry is larger than its key), the probe
# constructors below and the registry's builds.  It holds a seed-1 benchmark
# round: in a fresh process, set-up and the first round of decide fill 156
# plans, 652 table sets (the tables one plan reads in one target part; 887
# tables built), 224 parts, 15 canonical forms; count-large 100 plans, 75
# table sets (154 tables built), 133 parts; crosscheck 93 invariants, 126
# EDB indexes.  Over three seed-1 rounds of each workload these caches miss
# only in the first, the probe caches hold at most 9 entries each and the
# registry's builds 16: none evicts.
CACHE_SIZE = 1024


# Probes repeat across decisions and depend only on their argument, so the
# probe-family constructors keep one shared structure per argument.
@functools.lru_cache(maxsize=CACHE_SIZE)
def directed_cycle(n: int) -> Structure:
    "The directed cycle on n vertices; n=1 is a single loop."
    if n < 1:
        raise ValueError("cycle length must be >= 1")
    return Structure._trusted(DIGRAPH_SIG, n, {"R": [(i, (i + 1) % n) for i in range(n)]})


@functools.lru_cache(maxsize=CACHE_SIZE)
def directed_path(n: int) -> Structure:
    "The directed path with n edges on n+1 vertices; n=0 is an edgeless point."
    if n < 0:
        raise ValueError("path length must be >= 0")
    return Structure._trusted(DIGRAPH_SIG, n + 1, {"R": [(i, i + 1) for i in range(n)]})


def n_ary_cycle(d: int, n: int) -> Structure:
    """
    Domain {0..d-1} with one n-ary relation holding the d tuples
    (i, i+1, ..., i+n-1) mod d.
    """
    if d < 1 or n < 1:
        raise ValueError("d and n must be >= 1")
    sig = Signature((("R", n),))
    tuples = {tuple((i + j) % d for j in range(n)) for i in range(d)}
    return Structure._trusted(sig, d, {"R": tuples})


def complete_singleton(sig: Signature) -> Structure:
    "One element; every relation holds on the all-zero tuple."
    return Structure._trusted(sig, 1, {name: [(0,) * arity] for name, arity in sig.relations})


@functools.lru_cache(maxsize=CACHE_SIZE)
def complete_pair(sig: Signature) -> Structure:
    "Two elements; each relation of arity m holds on all 2^m tuples."
    return Structure._trusted(sig, 2, {name: itertools.product((0, 1), repeat=arity)
                                       for name, arity in sig.relations})


def disjoint_union(a: Structure, b: Structure) -> Structure:
    if a.signature != b.signature:
        raise SignatureMismatch("signature mismatch")
    shift = a.domain_size
    rels = {name: set(a.relations[name]) |
            {tuple(e + shift for e in t) for t in b.relations[name]}
            for name in a.signature.names}
    return Structure._trusted(a.signature, a.domain_size + b.domain_size, rels)


def scalar_multiple(m: int, h: Structure) -> Structure:
    "m disjoint copies of h; m=0 is rejected (structures are non-empty)."
    if m < 1:
        raise ValueError("multiplier must be >= 1")
    n = h.domain_size
    # copy i on elements i*n .. (i+1)*n-1, as chained disjoint_union labels them
    rels = {name: {tuple(e + i * n for e in t) for i in range(m) for t in ts}
            for name, ts in h.relations.items()}
    return Structure._trusted(h.signature, m * n, rels)


def direct_product(a: Structure, b: Structure) -> Structure:
    """
    Componentwise product.  The pair (x, y) gets the fixed row-major
    index x*|B| + y so product structures are reproducible.
    """
    if a.signature != b.signature:
        raise SignatureMismatch("signature mismatch")
    nb = b.domain_size
    rels = {}
    for name in a.signature.names:
        rels[name] = {
            tuple(ta[i] * nb + tb[i] for i in range(len(ta)))
            for ta in a.relations[name] for tb in b.relations[name]}
    return Structure._trusted(a.signature, a.domain_size * nb, rels)


def _refine(colours: list[int], incidence) -> list[int]:
    """
    Split colour classes until every element of a colour sees the same
    multiset of (relation, position, colours of the fact's elements) over
    the facts it occurs in.  New colours are ranks ordered by old colour
    first, so the result depends on labels only through the input colours.
    """
    while True:
        colour = colours.__getitem__
        signatures = [(colours[e], tuple(sorted((r, i, tuple(map(colour, t)))
                                                for r, i, t in slots)))
                      for e, slots in enumerate(incidence)]
        ranks = {sig: k for k, sig in enumerate(sorted(set(signatures)))}
        # stable once no class splits, or once every class is one element
        stable = len(ranks) in (len(set(colours)), len(colours))
        colours = [ranks[sig] for sig in signatures]
        if stable:
            return colours


def canonical_key(s: Structure) -> tuple:
    """
    The least relation key (each relation's sorted tuples, in signature
    order) over the leaves of a depth-first individualization-refinement
    search (McKay and Piperno, J. Symb. Comput. 2014).  A node refines its
    colouring; a discrete colouring is a leaf, read as a labeling.
    Otherwise each element of the first colour class with more than one
    element gets, in turn, a colour of its own in a child node.  A leaf
    with an earlier leaf's key cuts its subtree below where their paths
    part: the two differ by an automorphism, which maps this path onto the
    earlier one (refinement ranks by old colour first), so the earlier,
    fully explored child there has the same keys.  Isomorphism-invariant;
    with the domain size it determines s up to isomorphism.
    """
    rels = [s.relations[name] for name in s.signature.names]
    incidence: list[list[tuple]] = [[] for _ in s.domain]
    for r, ts in enumerate(rels):
        for t in ts:
            for i, e in enumerate(t):
                incidence[e].append((r, i, t))
    seen: dict[tuple, tuple[int, ...]] = {}  # each key met -> the path of its first leaf
    nodes = [((), [0] * s.domain_size)]  # (individualized elements, colouring)
    while nodes:
        path, colours = nodes.pop()
        colours = _refine(colours, incidence)
        if len(set(colours)) < s.domain_size:
            split = min(c for c, k in collections.Counter(colours).items() if k > 1)
            for x in (e for e, c in enumerate(colours) if c == split):
                # x keeps the least colour of its class; every other element shifts up
                nodes.append((path + (x,), [2 * c + (e != x) for e, c in enumerate(colours)]))
            continue
        relabel = itertools.repeat(colours.__getitem__)
        key = tuple(tuple(sorted(map(tuple, map(map, relabel, ts)))) for ts in rels)
        first = seen.setdefault(key, path)
        if first != path:
            child = path[:1 + next(d for d, (x, y) in enumerate(zip(path, first)) if x != y)]
            while nodes and nodes[-1][0][:len(child)] == child:
                nodes.pop()
    return min(seen)


def canonical_form(s: Structure) -> Structure:
    "The relabeling of s whose relations give canonical_key(s)."
    return _structure_of_key(s.signature, s.domain_size, canonical_key(s))


@functools.lru_cache(maxsize=CACHE_SIZE)
def _structure_of_key(signature: Signature, domain_size: int, key: tuple) -> Structure:
    "One shared structure per canonical key, so kept canonical forms share memory."
    return Structure._trusted(signature, domain_size, dict(zip(signature.names, key)))


ISOMORPHIC_GUARD = 8


def isomorphic(a: Structure, b: Structure) -> bool:
    "Equal domain size and canonical keys; guarded to small domains."
    if a.signature != b.signature:
        raise SignatureMismatch("signature mismatch")
    if a.domain_size != b.domain_size:
        return False
    if any(len(a.relations[n]) != len(b.relations[n]) for n in a.signature.names):
        return False
    check_guard("isomorphism guard: |A|", a.domain_size, ISOMORPHIC_GUARD)
    return canonical_key(a) == canonical_key(b)


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


_JSON_KINDS = {dict: "an object", list: "a list"}


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


def _built(cls, *args):
    "cls(*args), its ValueError raised as StructureDecodeError."
    try:
        return cls(*args)
    except ValueError as exc:
        raise StructureDecodeError(exc) from None


DOMAIN_GUARD = 10 ** 5  # elements of a decoded structure; every engine builds per-element lists


def decode_structure(text: str) -> Structure:
    """
    Read encode_structure's JSON form.  Anything else raises
    StructureDecodeError with a one-line message, nothing is coerced.  Here:
    invalid JSON, duplicate, missing or unknown keys, a wrong container, a
    relation outside the signature, a tuple that is not a list of its arity;
    Signature and Structure check the rest, with their own messages.  A
    domain past DOMAIN_GUARD, which a few bytes can state, is refused as
    a guard.
    """
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: deep nesting
        raise StructureDecodeError(f"invalid JSON: {exc}") from None
    _object(doc, "structure", {"signature", "domain"}, {"relations"})
    entries = [_object(r, "signature entry", {"name", "arity"})
               for r in _typed(doc["signature"], list, "signature")]
    signature = _built(Signature, tuple((r["name"], r["arity"]) for r in entries))
    arities = dict(signature.relations)
    rels = dict.fromkeys(arities, ())
    for name, tuples in _typed(doc.get("relations", {}), dict, "relations").items():
        if name not in arities:
            raise StructureDecodeError(f"relation {name!r} is not in the signature")
        for t in _typed(tuples, list, f"relation {name!r}"):
            if type(t) is not list or len(t) != arities[name]:
                raise StructureDecodeError(
                    f"relation {name!r}: {json.dumps(t)} is not a list of {arities[name]} elements")
        rels[name] = tuples
    s = _built(Structure, signature, doc["domain"], rels)
    check_guard("domain guard: |A|", s.domain_size, DOMAIN_GUARD)
    return s
