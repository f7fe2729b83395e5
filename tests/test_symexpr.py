"""Reasoner predicates: normalize / implies / value_for_var / eval_concrete."""

import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

import symvalic
from symvalic.symexpr import (
    ARITY, ASSOCIATIVE, BINOPS, MAX_EXPR_DEPTH, Const, Expr, FALSE, OWNER,
    OWNER_UNIQUE, Op, Sym, TRUE, UNPRIVILEGED_USER, WORD,
    eval_concrete, free_syms, implies, normalize, substitute, value_for_var,
)
from symvalic import symexpr
from symvalic.analysis_cache import load, write
from symvalic.deps import DependencyMap
from symvalic.parser import parse
from symvalic.valueflow import Inference, analyze

from conftest import FIXTURES
from helpers import gen_arith, gen_assignment, gen_bool, nested, some_syms

X = Sym("x", False)
Y = Sym("y", False)
B = Op("LT", X, Const(3))  # a truth value: the logical identities hold


def add(a, b):
    return Op("ADD", a, b)


def test_substitute_returns_unchanged_nodes_themselves():
    e = add(Op("NOT", Op("SHA3", Op("CONCAT", X, Const(1)))),
            Op("MUL", Y, Const(2)))
    assert substitute(e, {Sym("z", False): Const(5)}) is e
    got = substitute(e, {Y: Const(5)})
    assert got == add(e.args[0], Op("MUL", Const(5), Const(2)))
    assert got.args[0] is e.args[0]  # the subtree without Y is shared
    got = substitute(e, {X: Y})
    assert got.args[0].args[0].args[0] == Op("CONCAT", Y, Const(1))
    assert got.args[1] is e.args[1]


# --- the operator node -------------------------------------------------------

INNER = Op("CONCAT", OWNER, Const(0))
INNER_KEY = (2, "CONCAT", (1, "<<owner>>"), (0, 0))
# each operator over INNER (and x, when binary): the printed form and sort
# key that its node class had before Op replaced them
PINNED = {
    "ADD": ("ADD(CONCAT(<<owner>>, 0), x)", (2, "ADD", INNER_KEY, (1, "x"))),
    "SUB": ("SUB(CONCAT(<<owner>>, 0), x)", (2, "SUB", INNER_KEY, (1, "x"))),
    "MUL": ("MUL(CONCAT(<<owner>>, 0), x)", (2, "MUL", INNER_KEY, (1, "x"))),
    "DIV": ("DIV(CONCAT(<<owner>>, 0), x)", (2, "DIV", INNER_KEY, (1, "x"))),
    "MOD": ("MOD(CONCAT(<<owner>>, 0), x)", (2, "MOD", INNER_KEY, (1, "x"))),
    "LT": ("LT(CONCAT(<<owner>>, 0), x)", (2, "LT", INNER_KEY, (1, "x"))),
    "GT": ("GT(CONCAT(<<owner>>, 0), x)", (2, "GT", INNER_KEY, (1, "x"))),
    "EQ": ("EQ(CONCAT(<<owner>>, 0), x)", (2, "EQ", INNER_KEY, (1, "x"))),
    "AND": ("AND(CONCAT(<<owner>>, 0), x)", (2, "AND", INNER_KEY, (1, "x"))),
    "OR": ("OR(CONCAT(<<owner>>, 0), x)", (2, "OR", INNER_KEY, (1, "x"))),
    "NOT": ("NOT(CONCAT(<<owner>>, 0))", (2, "NOT", INNER_KEY)),
    "SHA3": ("SHA3(CONCAT(<<owner>>, 0))", (2, "SHA3", INNER_KEY)),
    "CONCAT": ("CONCAT(CONCAT(<<owner>>, 0), x)",
               (2, "CONCAT", INNER_KEY, (1, "x"))),
}


@pytest.mark.parametrize("op", ARITY)
def test_op_checks_its_arity_and_keeps_print_order_hash_and_pickling(op):
    assert ARITY.keys() == PINNED.keys()
    operands = (INNER, X)[:ARITY[op]]
    for count in range(4):
        if count != ARITY[op]:
            with pytest.raises(ValueError):
                Op(op, *[X] * count)
    with pytest.raises(ValueError):
        Op(op.lower(), *operands)
    e = Op(op, *operands)
    assert (e.render(), e.sort_key()) == PINNED[op]
    # interned: the node of a value is built once, and hashes by identity
    assert Op(op, *operands) is e and hash(e) == object.__hash__(e)
    back = pickle.loads(pickle.dumps(e))
    assert back is e


def test_every_exported_name_is_defined():
    namespace = {}
    exec("from symvalic import *", namespace)
    for name in symvalic.__all__:
        assert hasattr(symvalic, name) and name in namespace, name


def test_constant_folding_chain():
    # 200 * 90 / 100 == 180, the deposit computation
    e = Op("DIV", Op("MUL", Const(200), Const(90)), Const(100))
    assert normalize(e) == Const(180)


def test_mul_identity():
    assert normalize(Op("MUL", X, Const(1))) == X


def test_wraparound_add():
    assert normalize(add(Const(WORD - 1), Const(2))) == Const(1)


@pytest.mark.parametrize("e,expected", [
    (add(X, Const(0)), X),
    (Op("MUL", X, Const(0)), FALSE),
    (Op("SUB", X, X), FALSE),
    (Op("AND", B, TRUE), B),
    (Op("AND", X, FALSE), FALSE),
    (Op("NOT", Op("NOT", B)), B),
    (Op("EQ", X, X), TRUE),
    (Op("DIV", X, Const(0)), FALSE),
    (Op("MOD", Const(7), Const(0)), FALSE),
    (Op("LT", X, Const(0)), FALSE),
])
def test_required_identities(e, expected):
    assert normalize(e) == expected


TRUTH_OF_X = Op("AND", TRUE, X)  # the canonical truth value of x


@pytest.mark.parametrize("e,expected", [
    (Op("AND", X, Const(1)), TRUTH_OF_X),
    (Op("OR", X, Const(0)), TRUTH_OF_X),
    (Op("AND", X, X), TRUTH_OF_X),
    (Op("NOT", Op("NOT", X)), TRUTH_OF_X),
    (Op("EQ", Op("AND", X, Const(1)), Const(1)),
     Op("EQ", TRUE, TRUTH_OF_X)),
], ids=["and-1", "or-0", "and-self", "not-not", "eq-and-1"])
def test_logical_identity_on_a_non_boolean_keeps_its_truth_value(e, expected):
    # at x = 5 every shape is 1; dropping the operation would give 5 (or,
    # under EQ, turn a true condition false)
    n = normalize(e)
    assert n == expected
    assert eval_concrete(e, {"x": 5}) == eval_concrete(n, {"x": 5}) == 1
    assert eval_concrete(n, {"x": 0}) == eval_concrete(e, {"x": 0})
    assert normalize(n) == n


def test_commutative_ordering():
    # Const before Sym before composite
    n = normalize(add(X, Const(5)))
    assert n == Op("ADD", Const(5), X)
    m = normalize(Op("MUL", Op("ADD", Const(5), X), Y))
    assert m.op == "MUL" and m.args[0] == Y


def test_reassociation_gathers_constants():
    e = add(add(X, Const(3)), Const(4))
    assert normalize(e) == Op("ADD", Const(7), X)


def test_gt_canonicalized_to_lt():
    n = normalize(Op("GT", X, Const(3)))
    assert n == Op("LT", Const(3), X)


def test_distinct_bound_symbols_unequal():
    assert normalize(Op("EQ", OWNER, UNPRIVILEGED_USER)) == FALSE
    # bound vs free stays open
    n = normalize(Op("EQ", OWNER, OWNER_UNIQUE))
    assert n not in (TRUE, FALSE)


def test_sha3_concat_peeling():
    e = Op("EQ", Op("SHA3", Op("CONCAT", X, Const(0))),
           Op("SHA3", Op("CONCAT", X, Const(0))))
    assert normalize(e) == TRUE
    e2 = Op("EQ", Op("SHA3", Op("CONCAT", X, Const(0))),
            Op("SHA3", Op("CONCAT", Y, Const(0))))
    n = normalize(e2)
    assert n == normalize(Op("EQ", X, Y))


def test_no_binop_with_two_const_children():
    rng = random.Random(7)
    for _ in range(300):
        e = gen_arith(rng, some_syms(rng), 4)
        n = normalize(e)
        for node in n.walk():
            if node.op in BINOPS:
                left, right = node.args
                assert not (isinstance(left, Const)
                            and isinstance(right, Const)), n.render()


# --- implies ---------------------------------------------------------------


def test_implies_reflexive():
    c = Op("EQ", Sym("sender", False), OWNER)
    assert implies(c, c) is True


def test_implies_conjunct_subsumption():
    a, b = Sym("a", False), Sym("b", False)
    assert implies(Op("AND", a, b), a) is True
    assert implies(a, Op("AND", a, b)) is False


def test_implies_interval_unknown():
    assert implies(Op("LT", X, Const(5)), Op("LT", X, Const(3))) is False
    assert implies(Op("LT", X, Const(3)), Op("LT", X, Const(5))) is True


def test_implies_from_equality():
    eq = Op("EQ", Const(4), X)
    assert implies(eq, Op("LT", X, Const(10))) is True
    assert implies(eq, Op("GT", X, Const(3))) is True
    assert implies(eq, Op("LT", X, Const(4))) is False


def test_implies_vacuous_and_trivial():
    assert implies(FALSE, Op("LT", X, Const(1))) is True
    assert implies(Op("LT", X, Const(1)), TRUE) is True


# --- value_for_var ----------------------------------------------------------


def test_value_for_var_direct_equality():
    assert value_for_var(X, Op("EQ", X, Const(42))) == (Const(42),)


def test_value_for_var_peels_storage_address():
    r = Sym("r", False)
    c = Op("EQ", Op("SHA3", Op("CONCAT", r, Const(0))),
           Op("SHA3", Op("CONCAT", OWNER, Const(0))))
    assert value_for_var(r, c) == (OWNER,)


def test_value_for_var_contradiction_empty():
    c = Op("AND", Op("EQ", X, Const(7)), Op("LT", X, Const(3)))
    assert value_for_var(X, c) == ()


def test_value_for_var_requires_free_symbol():
    with pytest.raises(ValueError):
        value_for_var(OWNER, Op("EQ", OWNER, Const(1)))


def test_value_for_var_through_disjunction():
    c = Op("OR", Op("EQ", X, Const(1)), Op("EQ", X, Const(2)))
    assert set(value_for_var(X, c)) == {Const(1), Const(2)}


# --- eval_concrete ----------------------------------------------------------


def test_eval_known_values():
    assert eval_concrete(add(X, Const(1)), {"x": 180}) == 181
    assert eval_concrete(Const(0), {}) == 0
    assert eval_concrete(Op("MOD", Const(7), Const(0)), {}) == 0


def test_eval_hash_is_deterministic_and_injective_in_practice():
    a = eval_concrete(Op("SHA3", Op("CONCAT", X, Const(0))), {"x": 7})
    b = eval_concrete(Op("SHA3", Op("CONCAT", X, Const(0))), {"x": 7})
    c = eval_concrete(Op("SHA3", Op("CONCAT", X, Const(1))), {"x": 7})
    assert a == b != c


@pytest.mark.parametrize("op, unit", [
    ("ADD", 0), ("MUL", 1), ("SUB", 0), ("DIV", 1)])
def test_identity_keeps_concat_a_word_under_sha3(op, unit):
    # inside SHA3 a CONCAT is hashed as two words, CONCAT+0 as one
    e = Op("SHA3", Op(op, Op("CONCAT", X, Y), Const(unit)))
    n = normalize(e)
    assert normalize(n) == n
    env = {"x": 3, "y": 5}
    assert eval_concrete(n, env) == eval_concrete(e, env)
    assert eval_concrete(n, env) != eval_concrete(
        Op("SHA3", Op("CONCAT", X, Y)), env)


A, B2, C, D = (Sym(name, False) for name in "abcd")


@pytest.mark.parametrize("e, env", [
    (Op("EQ", Op("CONCAT", A, B2), Op("CONCAT", C, D)),
     {"a": 1, "b": 2, "c": 3, "d": 2}),
    (Op("EQ", Op("SHA3", A), Op("SHA3", Op("CONCAT", B2, C))),
     {"a": 5, "b": 0, "c": 5}),
    (Op("EQ", Op("SHA3", Op("CONCAT", Op("CONCAT", A, B2), C)),
        Op("SHA3", Op("CONCAT", A, Op("CONCAT", B2, C)))),
     {"a": 1, "b": 2, "c": 3}),
], ids=["bare-concat", "lengths-differ", "shapes-differ"])
def test_hash_equality_compares_byte_images(e, env):
    # a bare CONCAT is its low word; under SHA3 equal hashes mean equal
    # byte images, whatever the CONCAT nesting
    n = normalize(e)
    assert normalize(n) == n
    assert eval_concrete(n, env) == eval_concrete(e, env)


hash_images = st.recursive(
    st.sampled_from([A, B2, C]) | st.builds(Const, st.integers(0, 2)),
    lambda inner: (st.builds(Op, st.just("CONCAT"), inner, inner)
                   | st.builds(Op, st.just("SHA3"), inner)),
    max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(hash_images, hash_images, st.lists(st.integers(0, 2), min_size=3,
                                          max_size=3))
def test_hash_equality_preserves_semantics(x, y, values):
    e = Op("EQ", Op("SHA3", x), Op("SHA3", y))
    n = normalize(e)
    env = dict(zip("abc", values))
    assert eval_concrete(n, env) == eval_concrete(e, env)


def test_eval_requires_total_assignment():
    with pytest.raises(KeyError):
        eval_concrete(add(X, Y), {"x": 1})


# --- randomized properties (hypothesis) --------------------------------------


@st.composite
def arith_exprs(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    return gen_arith(rng, some_syms(rng), 4), rng


@settings(max_examples=300, deadline=None)
@given(arith_exprs())
def test_normalize_idempotent(pair):
    e, _ = pair
    n = normalize(e)
    assert normalize(n) == n


@settings(max_examples=300, deadline=None)
@given(arith_exprs())
def test_normalize_preserves_semantics(pair):
    e, rng = pair
    n = normalize(e)
    for _ in range(5):
        assignment = gen_assignment(rng, e)
        assert eval_concrete(e, assignment) == eval_concrete(n, assignment)


@st.composite
def bool_exprs(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    syms = some_syms(rng)
    return gen_bool(rng, syms, 3), gen_bool(rng, syms, 3), rng


@settings(max_examples=200, deadline=None)
@given(bool_exprs())
def test_implies_sound_on_random_pairs(triple):
    strong, weak, rng = triple
    if implies(strong, weak):
        both = Op("AND", strong, weak)
        for _ in range(25):
            assignment = gen_assignment(rng, both)
            if eval_concrete(strong, assignment) == 1:
                assert eval_concrete(weak, assignment) == 1


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_value_for_var_candidates_satisfy(seed):
    rng = random.Random(seed)
    c = gen_bool(rng, [X, Y], 3)
    for sym in free_syms(c):
        for cand in value_for_var(sym, c):
            n = normalize(substitute(normalize(c), {sym: cand}))
            assert n == TRUE, (c.render(), sym.name, cand.render())


# --- interning and the depth bound ---------------------------------------------


def rebuilt(e: Expr) -> Expr:
    """e built anew node by node."""
    cls, args = e.__reduce__()
    return cls(*(rebuilt(a) if isinstance(a, Expr) else a for a in args))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_equal_trees_built_apart_compare_and_hash_alike(seed, truth_value):
    rng = random.Random(seed)
    syms = some_syms(rng)
    e = gen_bool(rng, syms, 3) if truth_value else gen_arith(rng, syms, 4)
    a, b = rebuilt(e), rebuilt(e)
    assert a is b  # one node per value
    assert a == b and hash(a) == hash(b) and a.render() == b.render()
    assert {a: "a"}[b] == "a" and {b: "b"}[a] == "b"
    na, nb = normalize(a), normalize(b)
    assert na is nb and hash(na) == hash(nb)
    assert {na: "a"}[nb] == "a" and nb in {na}
    # normalize's memo is the node's slot; recomputing gives the same node
    assert na.op is None or symexpr._normalize(a) is na


def test_differing_trees_compare_unequal():
    assert Op("ADD", X, Y) != Op("ADD", Y, X)
    assert Op("ADD", X, Y) != Op("SUB", X, Y)
    assert Op("NOT", X) != Op("SHA3", X) and Sym("x", True) != X


def test_a_constant_prints_by_its_value_alone():
    assert [Const(v).render() for v in (0, 42, 2**64 - 1, 2**64, WORD - 1)] \
        == ["0", "42", "18446744073709551615", "0x10000000000000000",
            "0x" + "f" * 64]
    assert Const.__slots__ == ("value", "key")


def deepest_value(leaf: Expr = OWNER) -> Expr:
    """x's value after chained `x = (x / 3) - user;` from x = leaf (a bound
    symbol other than user): exactly MAX_EXPR_DEPTH deep, and every level
    survives normalize."""
    e = leaf
    while e.depth < MAX_EXPR_DEPTH:
        e = (Op("DIV", e, Const(3)) if e.depth % 2
             else Op("SUB", e, UNPRIVILEGED_USER))
    return e


def test_value_at_the_depth_bound_survives_every_walk():
    # a leaf no other test uses: its nodes are new, so their normal forms
    # and sort keys are computed here, at depth, not read from their slots
    e = deepest_value(Sym("<<depth-bound-walks>>", bound=True))

    def walks():
        back = pickle.loads(pickle.dumps(e))
        assert back is e and hash(back) == hash(e)
        assert normalize(back) == e
        swapped = substitute(e, {UNPRIVILEGED_USER: OWNER})
        assert normalize(swapped).depth == MAX_EXPR_DEPTH
        assert e.sort_key() == back.sort_key()
        assert e.render() == back.render()
        return True

    # MAX_EXPR_DEPTH's promise: every walk works 250 frames deep, which a
    # walk taking two stack frames a level (a comprehension over an Op's
    # args, or a tuple comparison of them) breaks
    assert nested(250, walks)


def test_building_past_the_depth_bound_raises_one_fixed_error():
    e = deepest_value()
    message = f"expression nested deeper than {MAX_EXPR_DEPTH}"
    for build in (lambda: Op("ADD", e, X), lambda: Op("NOT", e),
                  lambda: Op("SHA3", e), lambda: Op("CONCAT", X, e)):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message


def test_cache_of_a_value_at_the_depth_bound_loads_from_a_deep_stack(
        tmp_path):
    e = deepest_value()
    d = DependencyMap((("to", e),), ())
    result = analyze(parse((FIXTURES / "safe.svc").read_text()))._replace(
        inferences=(Inference("deposit", "x", e, d),), storage=((e, e, 1),))
    path = tmp_path / "Safe.analysis.json"
    write(path, "key", result)
    facts = nested(100, lambda: load(path, "key"))
    assert facts is not None
    assert facts["inferences"] == result.inferences
    assert facts["storage"] == result.storage
    assert facts["inferences"][0].value.render() == e.render()


def balanced(op: str, leaves: list) -> Expr:
    if len(leaves) == 1:
        return leaves[0]
    half = len(leaves) // 2
    return Op(op, balanced(op, leaves[:half]), balanced(op, leaves[half:]))


def left_deep(op: str, leaves: list) -> Expr:
    out = leaves[0]
    for leaf in leaves[1:]:
        out = Op(op, out, leaf)
    return out


@pytest.mark.parametrize("op", sorted(ASSOCIATIVE))
def test_a_shallow_chain_too_long_to_nest_left_deep_normalizes(op):
    # the 300 terms would nest 300 deep as a left-deep chain
    syms = [Sym(f"s{i:03d}", bound=True) for i in range(300)]
    e = balanced(op, syms[::-1])
    assert e.depth == 10
    n = normalize(e)
    assert n.render() == balanced(op, syms).render()
    # normalize has recorded n as its own normal form; compute it afresh
    assert symexpr._normalize(n).render() == n.render()
    rng = random.Random(300)
    for _ in range(5):
        env = {s.name: rng.choice((0, 1, rng.randrange(WORD))) for s in syms}
        assert eval_concrete(n, env) == eval_concrete(e, env)


@pytest.mark.parametrize("terms", [255, MAX_EXPR_DEPTH])
def test_a_chain_that_fits_keeps_its_left_deep_form(terms):
    syms = [Sym(f"s{i:03d}", bound=True) for i in range(terms)]
    n = normalize(balanced("ADD", syms[::-1]))
    assert n.depth == terms
    assert n.render() == left_deep("ADD", syms).render()
