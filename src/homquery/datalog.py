"""
A minimal Boolean Datalog evaluator: Horn rules over EDB predicates
(the input structure's relations) and IDB predicates including a nullary
goal, evaluated bottom-up to a fixpoint by semi-naive iteration with
indexed, set-at-a-time joins.  Each round fires the goal's rules first
and ends as soon as the goal holds.

Rule text format, one rule per line:

    Head(x, y) :- Body1(x, z), Body2(z, y), x = y.

Every argument is a variable, an identifier such as x or y' (there are
no constants); equality atoms relate two variables; the goal predicate is
a nullary `Ans()` (case-insensitive name).  Every head variable must occur
in the body (equality atoms count as occurrences).  Equalities cost
nothing at run time: a rule is compiled with the variables they join
renamed to one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple

from .structures import CACHE_SIZE, Structure

EQ = "="


class Atom(NamedTuple):
    predicate: str  # EQ for equality atoms
    variables: tuple[str, ...]


class Rule(NamedTuple):
    head: Atom
    body: tuple[Atom, ...]


class DatalogError(Exception):
    pass


@dataclass(frozen=True)
class DatalogProgram:
    """
    A program is its rules.  The goal, the one nullary Ans() head
    (case-insensitive name), and each IDB predicate's arity, that of its
    heads, are derived from them; so are the EDB arities and the join plans.
    """
    rules: tuple[Rule, ...]
    # derived from rules, so rules alone decide == and the hash
    idb: dict[str, int] = field(init=False, compare=False)   # predicate -> arity
    goal: str = field(init=False, compare=False)
    # EDB predicate arities and join plans, computed once per program (see _compile_program)
    edb: dict[str, int] = field(init=False, repr=False, compare=False)
    first_plans: tuple = field(init=False, repr=False, compare=False)
    delta_plans: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        goals = {rule.head.predicate for rule in self.rules
                 if not rule.head.variables and rule.head.predicate.lower() == "ans"}
        if len(goals) != 1:
            raise DatalogError("program needs exactly one nullary goal Ans()")
        check_safety(self)
        # every atom of a predicate has one arity: an IDB predicate's is that
        # of its heads, an EDB predicate's is the same throughout the program
        idb = {rule.head.predicate: len(rule.head.variables) for rule in self.rules}
        edb: dict[str, int] = {}
        for rule in self.rules:
            for atom in (rule.head, *rule.body):
                if atom.predicate == EQ:
                    continue
                arities = idb if atom.predicate in idb else edb
                if arities.setdefault(atom.predicate, len(atom.variables)) != len(atom.variables):
                    raise DatalogError(f"inconsistent arity for {atom.predicate}")
        goal = goals.pop()
        first, later = _compile_program(self.rules, idb, goal)
        for name, value in (("idb", idb), ("goal", goal), ("edb", edb),
                            ("first_plans", first), ("delta_plans", later)):
            object.__setattr__(self, name, value)


_NAME = r"[A-Za-z_][A-Za-z0-9_']*"  # a predicate or a variable
_ATOM_RE = re.compile(rf"\s*({_NAME})\s*\(([^)]*)\)\s*$")
_EQ_RE = re.compile(rf"\s*({_NAME})\s*=\s*({_NAME})\s*$")


def _parse_atom(text: str) -> Atom:
    eq = _EQ_RE.match(text)
    if eq:
        return Atom(EQ, (eq.group(1), eq.group(2)))
    m = _ATOM_RE.match(text)
    if not m:
        raise DatalogError(f"cannot parse atom {text!r}")
    name, args = m.group(1), m.group(2).strip()
    variables = tuple(a.strip() for a in args.split(",")) if args else ()
    if any(not v for v in variables):
        raise DatalogError(f"empty argument in atom {text!r}")
    for v in variables:
        if not re.fullmatch(_NAME, v):
            raise DatalogError(f"argument {v!r} in atom {text!r} is not a variable")
    return Atom(name, variables)


def _split_body(text: str) -> list[str]:
    # split on commas that are not inside parentheses
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def parse_program(text: str) -> DatalogProgram:
    rules = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("%"):
            continue
        if ":-" not in line:
            raise DatalogError(f"line without ':-' rejected: {raw!r}")
        if line.endswith("."):
            line = line[:-1]
        head_text, body_text = line.split(":-", 1)
        head = _parse_atom(head_text)
        if head.predicate == EQ:
            raise DatalogError("equality cannot be a rule head")
        body = tuple(_parse_atom(p) for p in _split_body(body_text))
        rules.append(Rule(head, body))
    if not rules:
        raise DatalogError("empty program")
    return DatalogProgram(tuple(rules))


def check_safety(program: DatalogProgram):
    "Range restriction: every head variable occurs in the body."
    for rule in program.rules:
        body_vars = {v for atom in rule.body for v in atom.variables}
        missing = set(rule.head.variables) - body_vars
        if missing:
            raise DatalogError(f"unsafe rule, head variables {missing} not in body")
        for atom in rule.body:
            if atom.predicate == EQ and len(atom.variables) != 2:
                raise DatalogError("equality atoms take exactly two variables")


def classify_program(program: DatalogProgram) -> tuple[bool, bool]:
    "(monadic, linear) flags over the recursive (IDB) predicates."
    real_idb = {name for name in program.idb if name != program.goal}
    monadic = all(program.idb[name] == 1 for name in real_idb)
    linear = all(
        sum(1 for atom in rule.body if atom.predicate in real_idb) <= 1
        for rule in program.rules)
    return monadic, linear


def _tuple_getter(positions: tuple[int, ...]):
    "The tuple of a tuple's values at the given positions."
    if len(positions) == 1:
        p, = positions
        return lambda t: (t[p],)
    if not positions:
        return lambda t: ()
    return itemgetter(*positions)


EDB, FULL, DELTA = "edb", "full", "delta"   # where a probe reads its facts


class _Probe(NamedTuple):
    """
    Join the bindings with one relation atom through a hash index on the
    atom's bound positions.  The index maps a key to the values of the
    variables the atom binds first, over the tuples whose repeated new
    variables agree.  Probes of one program with the same predicate,
    source and shape share an index_id, and so one index.
    """
    predicate: str
    source: str                             # EDB, FULL or DELTA
    index_id: int
    # (key positions, positions of the new variables, (first, later)
    # positions of each repeated new variable)
    shape: tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, int], ...]]
    probe_key: object                       # binding -> key


class _Plan(NamedTuple):
    "One rule variant: join steps (a probe, or None for a domain step), then the projection."
    head: str
    steps: tuple
    project: object                         # binding -> head tuple


def _index(facts, shape) -> dict:
    key_positions, out_positions, repeats = shape
    if repeats:
        facts = [t for t in facts if all(t[p] == t[q] for p, q in repeats)]
    key, out = _tuple_getter(key_positions), _tuple_getter(out_positions)
    index: dict = {}
    for t in facts:
        index.setdefault(key(t), []).append(out(t))
    return index


# EDB indexes are kept across calls, keyed on the relation's contents, so
# structures that share a relation share its indexes.
@lru_cache(maxsize=CACHE_SIZE)
def _edb_index(relation: frozenset, shape) -> dict:
    "_index of an EDB relation; callers must not mutate it."
    return _index(relation, shape)


def _atom_step(atom: Atom, source: str, slot: dict[str, int], index_ids: dict) -> _Probe:
    "The probe for one relation atom; extends `slot` with the variables it binds."
    key_positions, key_slots, out_positions, repeats = [], [], [], []
    first: dict[str, int] = {}
    for pos, v in enumerate(atom.variables):
        if v in slot and v not in first:
            key_positions.append(pos)
            key_slots.append(slot[v])
        elif v in first:
            repeats.append((first[v], pos))
        else:
            first[v] = pos
            out_positions.append(pos)
    for pos in out_positions:
        slot[atom.variables[pos]] = len(slot)
    shape = (tuple(key_positions), tuple(out_positions), tuple(repeats))
    index_id = index_ids.setdefault((atom.predicate, source, shape), len(index_ids))
    return _Probe(atom.predicate, source, index_id, shape, _tuple_getter(tuple(key_slots)))


def _plan(rule: Rule, delta: int | None, idb, index_ids: dict) -> _Plan:
    """
    Each class of variables the equalities join is renamed to its first
    member (Chandra and Merlin, STOC 1977).  Join order over the relation
    atoms: the delta atom (if any) first, then greedily the atom with no
    unbound variable, else the one with the most bound variables.  A head
    variable no relation atom binds then gets a domain step; a class with
    neither kind of variable is dropped, sound as domains are non-empty.
    """
    classes: dict[str, list[str]] = {}
    for atom in rule.body:
        if atom.predicate == EQ:
            x, y = (classes.setdefault(v, [v]) for v in atom.variables)
            if x is not y:
                x.extend(y)
                classes.update(dict.fromkeys(y, x))
    name = lambda v: classes[v][0] if v in classes else v
    body = [Atom(atom.predicate, tuple(map(name, atom.variables))) for atom in rule.body]
    slot: dict[str, int] = {}
    remaining = [i for i, atom in enumerate(body) if atom.predicate != EQ]

    def priority(i):
        bound = {v for v in body[i].variables if v in slot}
        unbound = set(body[i].variables) - bound
        return (not unbound, len(bound), -len(unbound))

    steps = []
    while remaining:
        i = delta if delta in remaining else max(remaining, key=priority)
        remaining.remove(i)
        source = DELTA if i == delta else FULL if body[i].predicate in idb else EDB
        steps.append(_atom_step(body[i], source, slot, index_ids))
    head = tuple(map(name, rule.head.variables))
    for v in head:
        if v not in slot:
            slot[v] = len(slot)
            steps.append(None)
    head_slots = tuple(map(slot.__getitem__, head))
    return _Plan(rule.head.predicate, tuple(steps), _tuple_getter(head_slots))


def _compile_program(rules, idb, goal) -> tuple[tuple[_Plan, ...], tuple[_Plan, ...]]:
    """
    (first-round plans, delta plans): a rule without IDB body atoms fires
    once, in the first round; a rule with IDB body atoms gets one variant
    per such atom, reading that atom from the last round's new facts.
    Both list the goal's plans first.  Every plan of a round reads only
    facts from earlier rounds, so their order does not change what the
    round derives, and a round can end as soon as the goal holds.
    """
    index_ids: dict = {}
    first, later = [], []
    for rule in rules:
        idb_atoms = [i for i, atom in enumerate(rule.body) if atom.predicate in idb]
        if idb_atoms:
            later.extend(_plan(rule, i, idb, index_ids) for i in idb_atoms)
        else:
            first.append(_plan(rule, None, idb, index_ids))
    goal_first = lambda plan: plan.head != goal
    return tuple(sorted(first, key=goal_first)), tuple(sorted(later, key=goal_first))


def _fire(plans, relation, domain, goal) -> dict[str, set]:
    """
    Head tuples the plans derive, up to the first plan that derives the
    goal; relation(probe) gives the probe's index.
    """
    out: dict[str, set] = {}
    for plan in plans:
        bindings = [()]
        for step in plan.steps:
            if step is not None:
                get, key = relation(step).get, step.probe_key
                bindings = [b + o for b in bindings for o in get(key(b), ())]
            else:
                bindings = [b + (x,) for b in bindings for x in domain]
            if not bindings:
                break
        else:
            out.setdefault(plan.head, set()).update(map(plan.project, bindings))
            if plan.head == goal:
                break
    return out


def evaluate(program: DatalogProgram, structure: Structure) -> bool:
    """
    Semi-naive bottom-up fixpoint; True iff the nullary goal is derived.
    Each round joins set-at-a-time through hash indexes (EDB ones read
    from _edb_index's cache once per call, IDB ones built once per round,
    each when a plan first reads it) and tries only derivations that use a
    fact new in the last round.
    A round fires the goal's rules first and ends as soon as the goal
    holds.
    """
    arities = dict(structure.signature.relations)
    for name, arity in program.edb.items():
        if name not in arities:
            raise DatalogError(f"EDB predicate {name} missing from the structure")
        if arities[name] != arity:
            raise DatalogError(f"arity mismatch for EDB predicate {name}")
    for name in program.idb:
        if name in arities:
            raise DatalogError(f"IDB predicate {name} names a relation of the structure")

    total: dict[str, set] = {name: set() for name in program.idb}
    delta: dict[str, set] = {}
    edb_indexes: dict[int, dict] = {}
    round_indexes: dict[int, dict] = {}

    def relation(probe: _Probe) -> dict:
        cache = edb_indexes if probe.source == EDB else round_indexes
        index = cache.get(probe.index_id)
        if index is None:
            index = cache[probe.index_id] = (
                _edb_index(structure.relations[probe.predicate], probe.shape)
                if probe.source == EDB
                else _index(total[probe.predicate] if probe.source == FULL
                            else delta.get(probe.predicate, ()), probe.shape))
        return index

    max_arity = max(program.idb.values(), default=0)
    round_bound = (structure.domain_size ** max_arity + 1) * len(program.rules) + 1
    plans = program.first_plans
    for _ in range(round_bound):
        round_indexes.clear()
        derived = _fire(plans, relation, structure.domain, program.goal)
        if program.goal in derived:
            return True
        delta = {name: new for name, facts in derived.items()
                 if (new := facts - total[name])}
        if not delta:
            return False
        for name, facts in delta.items():
            total[name] |= facts
        plans = program.delta_plans
    raise DatalogError("fixpoint round bound exceeded (should be impossible)")


DIRECTED_CYCLE_PROGRAM = """\
X(x, y) :- R(x, y).
X(x, y) :- X(x, x1), R(x1, y).
Ans() :- X(z, z).
"""

PQ_REACHABILITY_PROGRAM = """\
X(x) :- P(x).
X(y) :- X(x), R(x, y).
X(y) :- X(x), R(y, x).
Ans() :- X(y), Q(y).
"""

NONZERO_NET_CYCLE_PROGRAM = """\
X(a, b) :- a = b.
X(a, b) :- X(a', b'), R(a', a), R(b', b).
X(a, b) :- X(a', b'), R(a, a'), R(b, b').
X(a, b) :- X(a, c), X(c, b).
Y(a, b) :- R(a, b).
Y(a, b) :- Y(a, c), X(c, b).
Y(a, b) :- X(a, c), Y(c, b).
Y(a, b) :- Y(a, c), Y(c, b).
Ans() :- Y(a, a).
"""

BUILTIN_PROGRAM_TEXTS = {
    "directed-cycle": DIRECTED_CYCLE_PROGRAM,
    "pq-reachability": PQ_REACHABILITY_PROGRAM,
    "nonzero-net-cycle": NONZERO_NET_CYCLE_PROGRAM,
}


def builtin_programs() -> dict[str, DatalogProgram]:
    return {name: parse_program(text)
            for name, text in BUILTIN_PROGRAM_TEXTS.items()}
