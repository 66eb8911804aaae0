"""
Concrete query algorithms: cycle detection in two counting queries, the
universal decide-by-identification strategy, the power-of-two cycle
family separators, the k-vs-(k-1) query construction, unary-signature
decision by inclusion-exclusion, the right two-query scheme, and the two
unbounded Boolean detectors.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce

from .analysis import component_count
from .catalog import enumerate_digraphs, enumerate_digraphs_upto
from .homs import hom_count, hom_into_cycle_union_formula
from .query import (
    NonAdaptiveAlgorithm,
    Strategy,
    StrategyContractError,
    Transcript,
)
from .structures import (
    DIGRAPH_SIG,
    GuardExceeded,
    Signature,
    Structure,
    check_guard,
    directed_cycle,
    directed_path,
    complete_pair,
    disjoint_union,
    scalar_multiple,
)


# The largest input right2q identifies, which its pinned separator weights are
# drawn for; a guard lift does not raise it.
RIGHT2Q_SIZE_CAP = 3

INSTANCE_PRIMES = (2, 3, 5, 7)  # adaptive_not_better_instance takes the first 2k


class ParameterError(ValueError):
    "A parameter is outside the range its construction or experiment accepts."


EDGELESS_SINGLETON = directed_path(0)


def cycle_detector_2query() -> Strategy:
    """
    Left counting strategy: learn |A| from the edgeless singleton, then
    query the directed path of length |A|; a walk that long must repeat
    a vertex, so the answer is positive iff A has a directed cycle.
    """
    def strategy(t: Transcript):
        if len(t) == 0:
            return EDGELESS_SINGLETON
        if len(t) == 1:
            return directed_path(t[0])
        return t[1] > 0
    return strategy


@lru_cache(maxsize=None)
def _candidate_vectors(size: int) -> dict[tuple[int, ...], Structure]:
    "The identified answer vectors of one size, each to its class, that every lovasz run shares."
    return {}


def identify_by_hom_vector(answers, size: int):
    """
    The unique iso-class of the given size whose hom vector matches, by
    elimination: answer i keeps the classes whose count from probe i
    equals it.  An identified vector is kept, so a repeat is one lookup.
    """
    answers = tuple(answers)
    identified = _candidate_vectors(size)
    match = identified.get(answers)
    if match is None:
        probes = enumerate_digraphs_upto(size)
        left = enumerate_digraphs(size).representatives if len(answers) == len(probes) else ()
        for probe, answer in zip(probes, answers):
            left = [h for h in left if hom_count(probe, h) == answer]
        if len(left) > 1:
            raise StrategyContractError("hom vectors failed to separate iso-classes")
        if not left:
            raise StrategyContractError("no candidate matches the hom vector")
        match = identified[answers] = left[0]
    return match


def lovasz_universal_decider(predicate) -> Strategy:
    """
    Left counting strategy: query the input's size, then hom counts from
    every iso-class of digraphs up to that size (frozen enumeration
    order); the answer vector pins the input down up to isomorphism, and
    the verdict is the class predicate (Structure -> bool) on the
    identified candidate.  The catalog's guard (CATALOG_GUARD vertices)
    bounds the inputs it decides.
    """
    def strategy(t: Transcript):
        if len(t) == 0:
            return EDGELESS_SINGLETON
        n = t[0]
        probes = enumerate_digraphs_upto(n)
        if len(t) - 1 < len(probes):
            return probes[len(t) - 1]
        return bool(predicate(identify_by_hom_vector(t[1:], n)))
    return strategy


EVEN = "even"
ODD = "odd"

DN_GUARD = 6  # D_n's largest n: dn_nonadaptive_separator(n) holds C_{2^(n-1)}


def check_positive(**params: int) -> None:
    "The one statement of the rule that each named parameter is >= 1."
    for name, value in params.items():
        if value < 1:
            raise ParameterError(f"{name} must be >= 1, got {value}")


def _check_dn(n: int) -> None:
    "The one statement of D_n's range, for every builder of its members and algorithms."
    check_positive(n=n)
    check_guard("dn guard: n", n, DN_GUARD)


def dn_member(n: int, m: int) -> Structure:
    "2^(n-m) copies of C_{2^m}, the family's member for m <= n."
    _check_dn(n)
    return scalar_multiple(2 ** (n - m), directed_cycle(2 ** m))


def dn_family(n: int, parity: str) -> tuple[tuple[int, Structure], ...]:
    "The pairs (m, dn_member(n, m)) for m <= n of the given parity."
    _check_dn(n)
    if parity not in (EVEN, ODD):
        raise ParameterError(f"parity must be {EVEN} or {ODD}, got {parity!r}")
    return tuple((m, dn_member(n, m)) for m in range(parity == ODD, n + 1, 2))


def _dn_answer_vector(n: int, m: int) -> tuple[int, ...]:
    # answers of queries C_{2^r}, r < n, on 2^(n-m) copies of C_{2^m}
    return tuple(
        hom_into_cycle_union_formula(directed_cycle(2 ** r), 2 ** (n - m), 2 ** m)
        for r in range(n))


def dn_nonadaptive_separator(n: int) -> NonAdaptiveAlgorithm:
    """
    Left counting algorithm with queries C_1, C_2, ..., C_{2^(n-1)}
    accepting exactly the even-parity family members' answer vectors.
    """
    _check_dn(n)
    queries = tuple(directed_cycle(2 ** r) for r in range(n))
    accept = frozenset(_dn_answer_vector(n, m) for m in range(0, n + 1, 2))
    return NonAdaptiveAlgorithm(queries, accept)


def dn_adaptive_binary_search(n: int) -> Strategy:
    """
    Promise strategy for inputs of the form 2^(n-m) copies of C_{2^m}:
    hom(C_{2^r}, input) is nonzero iff m <= r, so binary search over
    m in [0, n] finds m in ceil(log2(n+1)) queries; accept iff m even.
    """
    _check_dn(n)

    def strategy(t: Transcript):
        lo, hi = 0, n
        for answer in t:
            mid = (lo + hi) // 2
            if answer > 0:
                hi = mid
            else:
                lo = mid + 1
        if lo == hi:
            return lo % 2 == 0
        mid = (lo + hi) // 2
        return directed_cycle(2 ** mid)
    return strategy


def adaptive_not_better_instance(k: int):
    """
    For the 2k distinct primes p_1..p_2k of INSTANCE_PRIMES[:2k] (k = 1 or 2)
    with product P: query structures F_i = p_i copies of C_{P/p_i} (i <= k)
    and test structures p_j copies of C_{P/p_j} (all j).  hom(F_i, test_j)
    is nonzero iff i = j, so the acceptance set (computed answer vectors of
    the first k test structures) accepts test_j exactly when j <= k.
    """
    primes = INSTANCE_PRIMES[:2 * k]
    if k < 1 or len(primes) != 2 * k:
        raise ParameterError(f"k={k} needs 2k distinct primes, got primes={primes}")
    product = math.prod(primes)
    structures = tuple(scalar_multiple(p, directed_cycle(product // p))
                       for p in primes)
    queries = structures[:k]

    def vector(j: int) -> tuple[int, ...]:
        return tuple(
            hom_into_cycle_union_formula(queries[i], primes[j], product // primes[j])
            for i in range(k))

    accept = frozenset(vector(j) for j in range(k))
    return NonAdaptiveAlgorithm(queries, accept), structures


def predicate_subsets(sig: Signature) -> tuple[tuple[str, ...], ...]:
    "All subsets of a unary signature's predicates, in frozen bitmask order."
    subsets = [()]
    for name in sig.names:  # each name doubles the list, as the next bit does
        subsets += [subset + (name,) for subset in subsets]
    return tuple(subsets)


def unary_singleton(sig: Signature, subset) -> Structure:
    "One element satisfying exactly the predicates in subset."
    subset = set(subset)
    return Structure._trusted(sig, 1, {name: [(0,)] if name in subset else []
                                       for name in sig.names})


def reconstruct_unary_counts(sig: Signature, answers) -> dict[tuple[str, ...], int]:
    """
    From answers a_S = #elements satisfying at least the predicates in S,
    recover by inclusion-exclusion the count of elements satisfying each
    subset exactly.
    """
    # subset i holds the predicates at the set bits of i, so S contains T iff
    # s & t == t, and then |S| - |T| is the bit count of s ^ t
    return {subset: sum(-a if (s ^ t).bit_count() & 1 else a
                        for s, a in enumerate(answers) if s & t == t)
            for t, subset in enumerate(predicate_subsets(sig))}


def reconstruct_unary_structure(sig: Signature, answers) -> Structure:
    exact = reconstruct_unary_counts(sig, answers)
    if any(v < 0 for v in exact.values()):
        raise StrategyContractError("inconsistent unary answer vector")
    total = sum(exact.values())
    rels: dict[str, set] = {name: set() for name in sig.names}
    element = 0
    for subset, count in exact.items():
        for _ in range(count):
            for name in subset:
                rels[name].add((element,))
            element += 1
    return Structure._trusted(sig, max(total, 1), rels)


def unary_full_decider(sig: Signature, predicate) -> NonAdaptiveAlgorithm:
    """
    For a unary signature with k predicates: the 2^k singleton queries
    F_S; hom(F_S, A) counts elements satisfying at least S, and the exact
    per-combination counts reconstructed from those answers determine A
    up to isomorphism, so any class is decided.
    """
    if any(arity != 1 for _, arity in sig.relations):
        raise ValueError("signature must be unary")
    queries = tuple(unary_singleton(sig, subset) for subset in predicate_subsets(sig))

    def accept(answers) -> bool:
        return predicate(reconstruct_unary_structure(sig, answers))

    return NonAdaptiveAlgorithm(queries, accept)


# One weight m_i per connected digraph class H_i of at most 3 vertices, in
# catalog order; right2q's separator F_n takes those of the classes of at most
# n vertices.  Drawn from 1..3 by random.Random(1945), the draw of seeds 0-2999
# that separated n = 1, 2 and 3 with the least |F_3|, then each lowered while
# that still held: |F_1| = 2, |F_2| = 28 and |F_3| = 463 elements.
RIGHT_SEPARATOR_WEIGHTS = (
    1, 1,
    1, 3, 1, 2, 3, 2, 1,
    1, 1, 1, 1, 1, 1, 1, 3, 1, 3, 1, 2, 1, 2, 1, 1, 2, 1, 3, 1, 2, 1,
    3, 1, 3, 1, 3, 1, 1, 1, 1, 3, 2, 1, 1, 1, 3, 3, 1, 2, 1, 3, 1, 2, 1,
    3, 1, 2, 2, 1, 1, 2, 1, 1, 3, 2, 1, 2, 1, 1, 2, 3, 1, 1, 2, 3, 2, 2,
    1, 2, 3, 3, 2, 2, 1, 2, 1, 1, 3, 3, 1, 2, 1, 2, 2, 1)


def right_separator(n: int, sig: Signature = DIGRAPH_SIG) -> tuple[Structure, dict]:
    """
    (F_n, its table from each count hom(A, F_n) to the class A of n vertices).

    F_n is the disjoint union of m_i copies of each connected class H_i of
    at most n vertices.  The table holds hom_count(A, F_n) for each class A,
    the very count a run's second query receives, and the weights'
    injectivity is checked as it is built.  Callers must not mutate the table.
    """
    if sig != DIGRAPH_SIG:
        raise ValueError("only digraph signatures are supported")
    # lru_cache keys on the call form: every form shares the entry of (n)
    return _right_separator(n)


# bench/run.py fills right2q's cache under the name of the catalog scan it replaced
brute_force_distinguisher = right_separator


@lru_cache(maxsize=None)
def _right_separator(n: int) -> tuple[Structure, dict]:
    if n > RIGHT2Q_SIZE_CAP:
        raise GuardExceeded(f"input size {n} > cap {RIGHT2Q_SIZE_CAP}")
    separator = reduce(disjoint_union, (
        scalar_multiple(m, h) for m, h in zip(RIGHT_SEPARATOR_WEIGHTS, (
            h for h in enumerate_digraphs_upto(n) if component_count(h) == 1))))
    table: dict[int, Structure] = {}
    for a in enumerate_digraphs(n).representatives:
        if table.setdefault(hom_count(a, separator), a) is not a:
            raise StrategyContractError(f"separator weights merge two classes of {n} vertices")
    return separator, table


def right_two_query_decider(predicate) -> Strategy:
    """
    Right counting strategy: hom(input, complete pair) = 2^|input|
    recovers the size; a second query against the separator of that size,
    whose counts differ on all its iso-classes, identifies the input, read
    from the separator's count table.
    """
    def strategy(t: Transcript):
        if len(t) == 0:
            return complete_pair(DIGRAPH_SIG)
        answer = t[0]
        if answer < 2 or answer & (answer - 1):
            raise StrategyContractError(f"first answer {answer} is not 2^n for a size n >= 1")
        separator, classes_by_count = _right_separator(answer.bit_length() - 1)
        if len(t) == 1:
            return separator
        match = classes_by_count.get(t[1])
        if match is None:
            raise StrategyContractError(f"no class of the input's size counts {t[1]}")
        return bool(predicate(match))
    return strategy


def _paths_then_cycles(yes: int) -> Strategy:
    """
    Both unbounded Boolean detectors: round r queries P_r then C_r; halt
    YES on a cycle answer equal to yes, NO on a path answer that is not.
    """
    def strategy(t: Transcript):
        if len(t) % 2 == 0:
            if t and t[-1] == yes:
                return True
            return directed_path(len(t) // 2 + 1)
        if t[-1] != yes:
            return False
        return directed_cycle((len(t) + 1) // 2)
    return strategy


def unbounded_boolean_cycle_detector() -> Strategy:
    """
    Left Boolean strategy: round r queries P_r then C_r; halt NO when a
    path answer is 0 (no walk that long, so no cycle), halt YES when a
    cycle answer is 1.  It halts within 2|A| queries: NO by P_|A| (a walk of
    |A| edges repeats an element), YES by the shortest cycle.
    """
    return _paths_then_cycles(1)


def unbounded_boolean_nonzero_net_cycle_detector() -> Strategy:
    """
    Right Boolean strategy: round r queries P_r then C_r; halt NO when
    the input maps into a path (no positive-net-length oriented cycle),
    halt YES when it fails to map into some cycle.  It halts within
    max(|A|-1, gamma(A)+1) rounds.
    """
    return _paths_then_cycles(0)
