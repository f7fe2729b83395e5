"""Reasoner predicates: normalize / implies / value_for_var / eval_concrete."""

import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from symvalic.symexpr import (
    MAX_EXPR_DEPTH, BinOp, Concat, Const, Expr, FALSE, Not, OWNER,
    OWNER_UNIQUE, Sha3, Sym, TRUE, UNPRIVILEGED_USER, WORD,
    clear_normalize_memo, eval_concrete, free_syms, implies, normalize,
    read_expr, substitute, value_for_var,
)

from helpers import gen_arith, gen_assignment, gen_bool, nested, some_syms

X = Sym("x", False)
Y = Sym("y", False)
B = BinOp("LT", X, Const(3))  # a truth value: the logical identities hold


def add(a, b):
    return BinOp("ADD", a, b)


def test_substitute_returns_unchanged_nodes_themselves():
    e = add(Not(Sha3(Concat(X, Const(1)))), BinOp("MUL", Y, Const(2)))
    assert substitute(e, {Sym("z", False): Const(5)}) is e
    got = substitute(e, {Y: Const(5)})
    assert got == add(e.left, BinOp("MUL", Const(5), Const(2)))
    assert got.left is e.left  # the subtree without Y is shared, not copied
    got = substitute(e, {X: Y})
    assert got.left.operand.operand == Concat(Y, Const(1))
    assert got.right is e.right


def test_constant_folding_chain():
    # 200 * 90 / 100 == 180, the deposit computation
    e = BinOp("DIV", BinOp("MUL", Const(200), Const(90)), Const(100))
    assert normalize(e) == Const(180)


def test_mul_identity():
    assert normalize(BinOp("MUL", X, Const(1))) == X


def test_wraparound_add():
    assert normalize(add(Const(WORD - 1), Const(2))) == Const(1)


@pytest.mark.parametrize("e,expected", [
    (add(X, Const(0)), X),
    (BinOp("MUL", X, Const(0)), FALSE),
    (BinOp("SUB", X, X), FALSE),
    (BinOp("AND", B, TRUE), B),
    (BinOp("AND", X, FALSE), FALSE),
    (Not(Not(B)), B),
    (BinOp("EQ", X, X), TRUE),
    (BinOp("DIV", X, Const(0)), FALSE),
    (BinOp("MOD", Const(7), Const(0)), FALSE),
    (BinOp("LT", X, Const(0)), FALSE),
])
def test_required_identities(e, expected):
    assert normalize(e) == expected


TRUTH_OF_X = BinOp("AND", TRUE, X)  # the canonical truth value of x


@pytest.mark.parametrize("e,expected", [
    (BinOp("AND", X, Const(1)), TRUTH_OF_X),
    (BinOp("OR", X, Const(0)), TRUTH_OF_X),
    (BinOp("AND", X, X), TRUTH_OF_X),
    (Not(Not(X)), TRUTH_OF_X),
    (BinOp("EQ", BinOp("AND", X, Const(1)), Const(1)),
     BinOp("EQ", TRUE, TRUTH_OF_X)),
], ids=["and-1", "or-0", "and-self", "not-not", "eq-and-1"])
def test_logical_identity_on_a_non_boolean_keeps_its_truth_value(e, expected):
    # at x = 5 every shape is 1; dropping the operation would give 5 (or,
    # under EQ, turn a true condition false)
    n = normalize(e)
    assert n == expected
    assert eval_concrete(e, {"x": 5}) == eval_concrete(n, {"x": 5}) == 1
    assert eval_concrete(n, {"x": 0}) == eval_concrete(e, {"x": 0})
    assert normalize(n) == n
    assert read_expr(n.render()).render() == n.render()


def test_commutative_ordering():
    # Const before Sym before composite
    n = normalize(add(X, Const(5)))
    assert n == BinOp("ADD", Const(5), X)
    m = normalize(BinOp("MUL", BinOp("ADD", Const(5), X), Y))
    assert isinstance(m, BinOp) and m.left == Y


def test_reassociation_gathers_constants():
    e = add(add(X, Const(3)), Const(4))
    assert normalize(e) == BinOp("ADD", Const(7), X)


def test_gt_canonicalized_to_lt():
    n = normalize(BinOp("GT", X, Const(3)))
    assert n == BinOp("LT", Const(3), X)


def test_distinct_bound_symbols_unequal():
    assert normalize(BinOp("EQ", OWNER, UNPRIVILEGED_USER)) == FALSE
    # bound vs free stays open
    n = normalize(BinOp("EQ", OWNER, OWNER_UNIQUE))
    assert n not in (TRUE, FALSE)


def test_sha3_concat_peeling():
    e = BinOp("EQ", Sha3(Concat(X, Const(0))), Sha3(Concat(X, Const(0))))
    assert normalize(e) == TRUE
    e2 = BinOp("EQ", Sha3(Concat(X, Const(0))), Sha3(Concat(Y, Const(0))))
    n = normalize(e2)
    assert n == normalize(BinOp("EQ", X, Y))


def test_no_binop_with_two_const_children():
    rng = random.Random(7)
    for _ in range(300):
        e = gen_arith(rng, some_syms(rng), 4)
        n = normalize(e)
        for node in n.walk():
            if isinstance(node, BinOp):
                assert not (isinstance(node.left, Const)
                            and isinstance(node.right, Const)), n.render()


# --- implies ---------------------------------------------------------------


def test_implies_reflexive():
    c = BinOp("EQ", Sym("sender", False), OWNER)
    assert implies(c, c) is True


def test_implies_conjunct_subsumption():
    a, b = Sym("a", False), Sym("b", False)
    assert implies(BinOp("AND", a, b), a) is True
    assert implies(a, BinOp("AND", a, b)) is False


def test_implies_interval_unknown():
    assert implies(BinOp("LT", X, Const(5)), BinOp("LT", X, Const(3))) is False
    assert implies(BinOp("LT", X, Const(3)), BinOp("LT", X, Const(5))) is True


def test_implies_from_equality():
    eq = BinOp("EQ", Const(4), X)
    assert implies(eq, BinOp("LT", X, Const(10))) is True
    assert implies(eq, BinOp("GT", X, Const(3))) is True
    assert implies(eq, BinOp("LT", X, Const(4))) is False


def test_implies_vacuous_and_trivial():
    assert implies(FALSE, BinOp("LT", X, Const(1))) is True
    assert implies(BinOp("LT", X, Const(1)), TRUE) is True


# --- value_for_var ----------------------------------------------------------


def test_value_for_var_direct_equality():
    assert value_for_var(X, BinOp("EQ", X, Const(42))) == (Const(42),)


def test_value_for_var_peels_storage_address():
    r = Sym("r", False)
    c = BinOp("EQ", Sha3(Concat(r, Const(0))), Sha3(Concat(OWNER, Const(0))))
    assert value_for_var(r, c) == (OWNER,)


def test_value_for_var_contradiction_empty():
    c = BinOp("AND", BinOp("EQ", X, Const(7)), BinOp("LT", X, Const(3)))
    assert value_for_var(X, c) == ()


def test_value_for_var_requires_free_symbol():
    with pytest.raises(ValueError):
        value_for_var(OWNER, BinOp("EQ", OWNER, Const(1)))


def test_value_for_var_through_disjunction():
    c = BinOp("OR", BinOp("EQ", X, Const(1)), BinOp("EQ", X, Const(2)))
    assert set(value_for_var(X, c)) == {Const(1), Const(2)}


# --- eval_concrete ----------------------------------------------------------


def test_eval_known_values():
    assert eval_concrete(add(X, Const(1)), {"x": 180}) == 181
    assert eval_concrete(Const(0), {}) == 0
    assert eval_concrete(BinOp("MOD", Const(7), Const(0)), {}) == 0


def test_eval_hash_is_deterministic_and_injective_in_practice():
    a = eval_concrete(Sha3(Concat(X, Const(0))), {"x": 7})
    b = eval_concrete(Sha3(Concat(X, Const(0))), {"x": 7})
    c = eval_concrete(Sha3(Concat(X, Const(1))), {"x": 7})
    assert a == b != c


@pytest.mark.parametrize("op, unit", [
    ("ADD", 0), ("MUL", 1), ("SUB", 0), ("DIV", 1)])
def test_identity_keeps_concat_a_word_under_sha3(op, unit):
    # inside SHA3 a CONCAT is hashed as two words, CONCAT+0 as one
    e = Sha3(BinOp(op, Concat(X, Y), Const(unit)))
    n = normalize(e)
    assert normalize(n) == n
    env = {"x": 3, "y": 5}
    assert eval_concrete(n, env) == eval_concrete(e, env)
    assert eval_concrete(n, env) != eval_concrete(Sha3(Concat(X, Y)), env)


A, B2, C, D = (Sym(name, False) for name in "abcd")


@pytest.mark.parametrize("e, env", [
    (BinOp("EQ", Concat(A, B2), Concat(C, D)),
     {"a": 1, "b": 2, "c": 3, "d": 2}),
    (BinOp("EQ", Sha3(A), Sha3(Concat(B2, C))), {"a": 5, "b": 0, "c": 5}),
    (BinOp("EQ", Sha3(Concat(Concat(A, B2), C)),
           Sha3(Concat(A, Concat(B2, C)))), {"a": 1, "b": 2, "c": 3}),
], ids=["bare-concat", "lengths-differ", "shapes-differ"])
def test_hash_equality_compares_byte_images(e, env):
    # a bare CONCAT is its low word; under SHA3 equal hashes mean equal
    # byte images, whatever the CONCAT nesting
    n = normalize(e)
    assert normalize(n) == n
    assert eval_concrete(n, env) == eval_concrete(e, env)


hash_images = st.recursive(
    st.sampled_from([A, B2, C]) | st.builds(Const, st.integers(0, 2)),
    lambda inner: st.builds(Concat, inner, inner) | st.builds(Sha3, inner),
    max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(hash_images, hash_images, st.lists(st.integers(0, 2), min_size=3,
                                          max_size=3))
def test_hash_equality_preserves_semantics(x, y, values):
    e = BinOp("EQ", Sha3(x), Sha3(y))
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
        both = BinOp("AND", strong, weak)
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


# --- stored hashes and the depth bound ----------------------------------------


def rebuilt(e: Expr, rng: random.Random) -> Expr:
    """e built anew node by node, each constant with a random hex_hint."""
    if isinstance(e, Const):
        return Const(e.value, hex_hint=rng.random() < 0.5)
    cls, args = e.__reduce__()
    return cls(*(rebuilt(a, rng) if isinstance(a, Expr) else a for a in args))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_equal_trees_built_apart_compare_and_hash_alike(seed, truth_value):
    rng = random.Random(seed)
    syms = some_syms(rng)
    e = gen_bool(rng, syms, 3) if truth_value else gen_arith(rng, syms, 4)
    a, b = rebuilt(e, rng), rebuilt(e, rng)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert {a: "a"}[b] == "a" and {b: "b"}[a] == "b"
    normal = []
    for x in (a, b):
        clear_normalize_memo()
        normal.append(normalize(x))
    na, nb = normal
    assert na == nb and hash(na) == hash(nb)
    assert {na: "a"}[nb] == "a" and nb in {na}


def test_differing_trees_compare_unequal():
    assert BinOp("ADD", X, Y) != BinOp("ADD", Y, X)
    assert BinOp("ADD", X, Y) != BinOp("SUB", X, Y)
    assert Not(X) != Sha3(X) and Sym("x", True) != X
    assert Const(42, hex_hint=True) == Const(42) != Const(43)
    assert hash(Const(42, hex_hint=True)) == hash(Const(42))


def deepest_value() -> Expr:
    """x's value after chained `x = (x / 3) - user;` from x = owner: exactly
    MAX_EXPR_DEPTH deep, and every level survives normalize."""
    e = OWNER
    while e.depth < MAX_EXPR_DEPTH:
        e = (BinOp("DIV", e, Const(3)) if e.depth % 2
             else BinOp("SUB", e, UNPRIVILEGED_USER))
    return e


def test_value_at_the_depth_bound_survives_every_walk():
    e = deepest_value()
    text = e.render()

    def walks():
        clear_normalize_memo()
        back = pickle.loads(pickle.dumps(e))
        assert back is not e and back == e and hash(back) == hash(e)
        assert normalize(back) == e
        swapped = substitute(e, {UNPRIVILEGED_USER: OWNER})
        assert normalize(swapped).depth == MAX_EXPR_DEPTH
        read = read_expr(text)
        assert read == e and read.render() == text
        assert e.sort_key() == back.sort_key()
        return True

    assert nested(100, walks)


def test_building_past_the_depth_bound_raises_one_fixed_error():
    e = deepest_value()
    message = f"expression nested deeper than {MAX_EXPR_DEPTH}"
    for build in (lambda: BinOp("ADD", e, X), lambda: Not(e),
                  lambda: Sha3(e), lambda: Concat(X, e),
                  lambda: read_expr(f"NOT({e.render()})")):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message
