import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_calls, small_digraphs
from homquery import datalog
from homquery.analysis import gamma
from homquery.datalog import (
    BUILTIN_PROGRAM_TEXTS,
    EQ,
    Atom,
    DatalogError,
    DatalogProgram,
    Rule,
    builtin_programs,
    check_safety,
    classify_program,
    evaluate,
    parse_program,
)
from homquery.homs import hom_exists
from homquery.oracle import has_directed_cycle
from homquery.structures import (
    Signature,
    digraph,
    directed_cycle,
    directed_path,
    disjoint_union,
    make_structure,
)

REACH = """\
X(x) :- P(x).
X(y) :- X(x), R(x, y).
Ans() :- X(y), Q(y).
"""

RPQ_SIG = Signature((("R", 2), ("P", 1), ("Q", 1)))

# hand-written programs over {R, P, Q}, one shape of rule each
REFERENCE_PROGRAMS = {
    # equality atoms with neither side (E, twice), one side (F) and
    # both sides (G) bound when the join reaches them
    "equalities": """\
E(a, b) :- a = b.
E(a, b) :- P(c), a = b.
F(a, b) :- R(a, c), c = b.
G(a) :- F(a, b), P(b), a = b.
Ans() :- G(a), E(a, b), Q(b).
""",
    # equalities compiled to renamings: a chain a = b, b = c binds the head
    # variable c only through a; d = d is a self-equality whose class holds
    # no head or relation variable; in F, x = y and u = v join two classes,
    # y = v merges them, x = u finds them already merged, and t = y merges
    # the merged class into t's
    "equality-classes": """\
E(a, c) :- P(a), a = b, b = c, d = d.
F(x, w) :- P(x), Q(u), R(v, w), x = y, u = v, y = v, x = u, t = y.
Ans() :- E(a, b), F(b, c), R(c, a).
""",
    # a repeated variable in an EDB and in an IDB atom, one IDB predicate
    # twice in a body, and a body of EDB atoms only
    "loops": """\
L(x, y) :- R(x, x), R(x, y).
L(x, y) :- L(x, z), L(z, y).
Ans() :- L(z, z), P(z).
""",
    "edb-only": """\
Ans() :- R(x, y), R(y, x), P(x), Q(y).
""",
    # two IDB predicates in one body whose facts arrive in different
    # rounds: A is complete after the first round, B keeps growing
    "meet": """\
A(x) :- P(x).
B(x) :- Q(x).
B(y) :- B(x), R(x, y).
C(x) :- A(x), B(x).
Ans() :- C(x).
""",
    # Y has no rule without Y in its body, so the goal is never derived
    "never": """\
X(x) :- P(x).
Y(x) :- Y(x), X(x).
Ans() :- Y(x), Q(x).
""",
    # the early stop: two goal rules, one of EDB atoms only and one that
    # waits for X; a round ends when either derives the goal
    "two-goals": """\
X(x) :- P(x).
X(y) :- X(x), R(x, y).
Ans() :- R(x, x), Q(x).
Ans() :- X(y), Q(y).
""",
    # the goal rule comes before the rules it depends on
    "goal-written-first": """\
Ans() :- Z(x), Q(x).
Z(x) :- Y(x), R(x, x).
Y(x) :- P(x).
Y(y) :- Y(x), R(y, x).
""",
    # A is derived in round 1, B in round 2, C in round 3 and the goal in
    # round 4 at the earliest
    "late-goal": """\
A(x) :- P(x).
B(y) :- A(x), R(x, y).
C(y) :- B(x), R(x, y).
Ans() :- C(y), Q(y).
""",
}


def _naive_rule_matches(rule, structure, derived):
    "Add all head tuples derivable from one rule under current facts."
    variables = sorted({v for atom in rule.body for v in atom.variables}
                       | set(rule.head.variables))
    added = False
    for values in itertools.product(structure.domain, repeat=len(variables)):
        env = dict(zip(variables, values))
        ok = True
        for atom in rule.body:
            if atom.predicate == EQ:
                if env[atom.variables[0]] != env[atom.variables[1]]:
                    ok = False
                    break
            else:
                t = tuple(env[v] for v in atom.variables)
                if atom.predicate in derived:
                    if t not in derived[atom.predicate]:
                        ok = False
                        break
                elif t not in structure.relations.get(atom.predicate, ()):
                    ok = False
                    break
        if ok:
            head_tuple = tuple(env[v] for v in rule.head.variables)
            if head_tuple not in derived[rule.head.predicate]:
                derived[rule.head.predicate].add(head_tuple)
                added = True
    return added


def _naive_evaluate(program, structure) -> bool:
    "Reference: naive bottom-up fixpoint over the |D|^#vars product per rule."
    derived = {name: set() for name in program.idb}
    while True:
        changed = False
        for rule in program.rules:
            if _naive_rule_matches(rule, structure, derived):
                changed = True
        if not changed:
            return () in derived[program.goal]


@st.composite
def rpq_structures(draw, max_elements=4):
    n = draw(st.integers(1, max_elements))
    elements = st.integers(0, n - 1)
    return make_structure(RPQ_SIG, n, {
        "R": draw(st.sets(st.tuples(elements, elements))),
        "P": draw(st.sets(st.tuples(elements))),
        "Q": draw(st.sets(st.tuples(elements))),
    })


def test_parse_program():
    p = parse_program(REACH)
    assert len(p.rules) == 3
    assert p.goal == "Ans"
    assert p.idb == {"X": 1, "Ans": 0}
    assert p.edb == {"P": 1, "R": 2, "Q": 1}
    first = p.rules[0]
    assert first.head == Atom("X", ("x",))
    assert first.body == (Atom("P", ("x",)),)


def test_program_is_its_rules():
    # the goal and the IDB arities are derived from the rules, so a program
    # rebuilt from a parsed program's rules is that program
    for text in BUILTIN_PROGRAM_TEXTS.values():
        parsed = parse_program(text)
        rebuilt = DatalogProgram(parsed.rules)
        assert rebuilt == parsed and hash(rebuilt) == hash(parsed)
        assert (rebuilt.idb, rebuilt.goal) == (parsed.idb, parsed.goal)
    # the rules alone are a program's identity, so programs key sets and caches
    assert len(set(builtin_programs().values())) == 3
    cycle = DatalogProgram(parse_program(BUILTIN_PROGRAM_TEXTS["directed-cycle"]).rules)
    assert evaluate(cycle, directed_cycle(3)) and not evaluate(cycle, directed_path(3))
    # a goal stated beside the rules could disagree with them
    with pytest.raises(TypeError):
        DatalogProgram(cycle.rules, cycle.idb, "Goal")
    no_goal = (Rule(Atom("X", ("x",)), (Atom("P", ("x",)),)),
               Rule(Atom("Ans", ("x",)), (Atom("X", ("x",)),)))
    for rules in (no_goal, no_goal[:1], ()):
        with pytest.raises(DatalogError, match=r"^program needs exactly one nullary goal Ans\(\)$"):
            DatalogProgram(rules)


def test_parse_comments_dots_and_primes():
    p = parse_program("""
# comment
% other comment style
X(a') :- P(a').
Ans() :- X(b)
""")
    assert p.rules[0].head.variables == ("a'",)
    assert len(p.rules) == 2


def test_parse_equality_atoms():
    p = parse_program("X(a, b) :- a = b.\nAns() :- X(c, c).")
    assert p.rules[0].body == (Atom(EQ, ("a", "b")),)


def test_parse_errors():
    with pytest.raises(DatalogError):
        parse_program("")  # empty
    with pytest.raises(DatalogError):
        parse_program("X(x).")  # fact without ':-'
    with pytest.raises(DatalogError):
        parse_program("X(x) :- P(x).")  # no goal
    with pytest.raises(DatalogError):
        parse_program("x = y :- P(x), P(y).\nAns() :- P(z).")  # eq head
    with pytest.raises(DatalogError):
        parse_program("X(x) :- P(x).\nX(x, y) :- P(x), P(y).\nAns() :- X(z).")
    with pytest.raises(DatalogError, match=r"^cannot parse atom ' R\(x'$"):
        parse_program("Ans() :- R(x")
    with pytest.raises(DatalogError, match=r"^empty argument in atom ' R\(x, \)'$"):
        parse_program("Ans() :- R(x, )")
    # every argument is a variable: a constant or a spaced name is refused
    with pytest.raises(DatalogError, match=r"^argument '0' in atom ' R\(0, 1\)' is not a variable$"):
        parse_program("Ans() :- R(0, 1).")
    with pytest.raises(DatalogError, match=r"^argument 'x y' in atom ' R\(x y, z\)' is not a variable$"):
        parse_program("Ans() :- R(x y, z).")


@pytest.mark.parametrize("text, predicate", [
    ("X(x) :- R(x, y).\nAns() :- X(x, y).", "X"),  # a body atom against its heads
    ("X(x) :- R(x, y).\nAns() :- X().", "X"),
    ("Ans() :- Ans(x).", "Ans"),
    ("Ans(x) :- R(x, x).\nAns() :- R(x, x).", "Ans"),  # two heads, in either order
    ("Ans() :- R(x, x).\nAns(x) :- R(x, x).", "Ans"),
    ("Ans() :- R(x), R(x, y).", "R"),  # an EDB predicate, in either order
    ("Ans() :- R(x, y), R(x).", "R"),
    ("X(x) :- R(x, y).\nAns() :- X(x), R(x).", "R"),  # across rules
])
def test_every_atom_of_a_predicate_has_one_arity(text, predicate):
    with pytest.raises(DatalogError, match=f"^inconsistent arity for {predicate}$"):
        parse_program(text)


def test_safety():
    with pytest.raises(DatalogError):
        parse_program("X(x, y) :- P(x).\nAns() :- X(a, b).")
    # equality occurrences make head variables safe
    p = parse_program("X(x, y) :- P(x), x = y.\nAns() :- X(a, a).")
    check_safety(p)
    # the parser only makes two-variable equalities; rules built directly are checked too
    one_sided = (Rule(Atom("Ans", ()), (Atom("P", ("x",)), Atom(EQ, ("x",)))),)
    with pytest.raises(DatalogError, match="^equality atoms take exactly two variables$"):
        DatalogProgram(one_sided)


def test_classify_program():
    builtins = builtin_programs()
    assert classify_program(builtins["directed-cycle"]) == (False, True)
    assert classify_program(builtins["pq-reachability"]) == (True, True)
    monadic, linear = classify_program(builtins["nonzero-net-cycle"])
    assert not monadic and not linear
    assert classify_program(parse_program(REACH)) == (True, True)


def test_evaluate_reachability():
    sig = RPQ_SIG
    p = parse_program(REACH)
    chain = make_structure(sig, 3, {"R": {(0, 1), (1, 2)},
                                    "P": {(0,)}, "Q": {(2,)}})
    assert evaluate(p, chain)
    reversed_chain = make_structure(sig, 3, {"R": {(1, 0), (2, 1)},
                                             "P": {(0,)}, "Q": {(2,)}})
    assert not evaluate(p, reversed_chain)
    # undirected builtin reaches along reversed arcs too
    assert evaluate(builtin_programs()["pq-reachability"], reversed_chain)


def test_evaluate_edb_errors():
    p = parse_program(REACH)
    with pytest.raises(DatalogError):
        evaluate(p, directed_cycle(2))  # P, Q missing
    bad = make_structure(Signature((("R", 1), ("P", 1), ("Q", 1))), 1,
                         {"R": set(), "P": set(), "Q": set()})
    with pytest.raises(DatalogError):
        evaluate(p, bad)  # R has the wrong arity
    # a derived R would hide the structure's R, whose facts it never reads
    clash = parse_program("R(x, y) :- R(y, x).\nAns() :- R(z, z).")
    with pytest.raises(DatalogError, match="^IDB predicate R names a relation of the structure$"):
        evaluate(clash, directed_cycle(1))


def test_directed_cycle_program_frozen_cases():
    p = builtin_programs()["directed-cycle"]
    assert evaluate(p, directed_cycle(1))
    assert evaluate(p, directed_cycle(3))
    assert not evaluate(p, directed_path(4))
    assert evaluate(p, disjoint_union(directed_path(1), directed_cycle(2)))


@settings(max_examples=80, deadline=None)
@given(small_digraphs(max_vertices=3))
def test_directed_cycle_program_matches_oracle(d):
    assert evaluate(builtin_programs()["directed-cycle"], d) == has_directed_cycle(d)


@settings(max_examples=40, deadline=None)
@given(small_digraphs(max_vertices=3))
def test_nonzero_net_cycle_program_matches_gamma(d):
    assert evaluate(builtin_programs()["nonzero-net-cycle"], d) == (gamma(d) != 0)


@settings(max_examples=30, deadline=None)
@given(small_digraphs(max_vertices=3), small_digraphs(max_vertices=3))
def test_builtin_queries_closed_under_homomorphisms(a, b):
    # both builtin digraph properties are preserved by homomorphic images
    if not hom_exists(a, b):
        return
    for name in ("directed-cycle", "nonzero-net-cycle"):
        p = builtin_programs()[name]
        if evaluate(p, a):
            assert evaluate(p, b)


@settings(max_examples=150, deadline=None)
@given(rpq_structures())
def test_evaluate_matches_naive_reference(s):
    texts = {**BUILTIN_PROGRAM_TEXTS, **REFERENCE_PROGRAMS}
    for name, text in texts.items():
        program = parse_program(text)
        assert evaluate(program, s) == _naive_evaluate(program, s), name


def test_reference_programs_frozen_cases():
    programs = {name: parse_program(text) for name, text in REFERENCE_PROGRAMS.items()}
    loop_p = make_structure(RPQ_SIG, 2, {"R": {(0, 0), (0, 1)}, "P": {(0,)}, "Q": set()})
    assert evaluate(programs["loops"], loop_p)
    assert not evaluate(programs["loops"], make_structure(
        RPQ_SIG, 2, {"R": {(0, 1), (1, 0)}, "P": {(0,), (1,)}, "Q": set()}))
    two_cycle = make_structure(RPQ_SIG, 2, {"R": {(0, 1), (1, 0)},
                                            "P": {(0,)}, "Q": {(1,)}})
    assert evaluate(programs["edb-only"], two_cycle)
    assert not evaluate(programs["never"], two_cycle)
    # B reaches the P element 2 only in the third round
    chain = make_structure(RPQ_SIG, 3, {"R": {(0, 1), (1, 2)}, "P": {(2,)}, "Q": {(0,)}})
    assert evaluate(programs["meet"], chain)
    # two R-steps from P to Q: "late-goal" needs four rounds
    two_steps = make_structure(RPQ_SIG, 3, {"R": {(0, 1), (1, 2)},
                                           "P": {(0,)}, "Q": {(2,)}})
    assert evaluate(programs["late-goal"], two_steps)
    assert not evaluate(programs["late-goal"], chain)
    # the goal holds through either goal rule alone
    assert evaluate(programs["two-goals"], make_structure(
        RPQ_SIG, 1, {"R": {(0, 0)}, "P": set(), "Q": {(0,)}}))
    assert evaluate(programs["two-goals"], two_steps)
    assert not evaluate(programs["two-goals"], chain)
    # Y spreads against R from the P element 2 to the looped Q element 0
    backwards = make_structure(RPQ_SIG, 3, {"R": {(0, 0), (0, 1), (1, 2)},
                                           "P": {(2,)}, "Q": {(0,)}})
    assert evaluate(programs["goal-written-first"], backwards)
    assert not evaluate(programs["goal-written-first"], chain)
    # G(a) needs an R-successor of a in P equal to a: a loop at a P element
    looped = make_structure(RPQ_SIG, 1, {"R": {(0, 0)}, "P": {(0,)}, "Q": {(0,)}})
    assert evaluate(programs["equalities"], looped)
    assert not evaluate(programs["equalities"], make_structure(
        RPQ_SIG, 2, {"R": {(0, 1)}, "P": {(0,), (1,)}, "Q": {(0,), (1,)}}))
    # the goal needs a P and Q element on an R-cycle of length 2 or 1: F's
    # R(v, w) starts at the element, not at any R-predecessor of w
    assert evaluate(programs["equality-classes"], make_structure(
        RPQ_SIG, 2, {"R": {(0, 1), (1, 0)}, "P": {(0,)}, "Q": {(0,)}}))
    assert not evaluate(programs["equality-classes"], make_structure(
        RPQ_SIG, 2, {"R": {(1, 0), (1, 1)}, "P": {(0,)}, "Q": {(0,)}}))


def test_a_round_ends_once_the_goal_holds(monkeypatch):
    # the goal's plans fire first in a round, and the indexes of the plans
    # after them are never built once the goal holds (cold EDB cache)
    datalog._edb_index.cache_clear()
    built = count_calls(monkeypatch, datalog._index)
    assert evaluate(builtin_programs()["nonzero-net-cycle"], directed_cycle(3))
    assert built[0] == 18  # 24 when every plan of the last round fires
    for program in builtin_programs().values():
        for plans in (program.first_plans, program.delta_plans):
            heads = [plan.head for plan in plans]
            assert heads == sorted(heads, key=lambda head: head != program.goal)


def test_edb_indexes_are_kept_across_calls(monkeypatch):
    # an EDB index is built once per relation contents and probe shape: a
    # second structure with an equal relation builds only the IDB indexes
    program = builtin_programs()["nonzero-net-cycle"]
    datalog._edb_index.cache_clear()
    built = count_calls(monkeypatch, datalog._index)
    assert evaluate(program, directed_cycle(3))
    assert (built[0], datalog._edb_index.cache_info().currsize) == (18, 3)
    assert evaluate(program, digraph(3, {(1, 2), (2, 0), (0, 1)}))
    assert built[0] == 18 + 15
