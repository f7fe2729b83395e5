"""Dependency map combination and budget restriction."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from symvalic.deps import (
    Conflict, DEFAULT_BUDGET, DependencyBudget, DependencyMap, EMPTY,
    TrackingPlan, combine, restrict,
)
from symvalic.symexpr import Const, OWNER, Op, Sym

from helpers import combine_dict


def dm(local=None, tx=None):
    return DependencyMap.of(local, tx)


def test_paper_conflict_example():
    a = dm({"to": Const(0x42), "amount": Const(200), "curBalance": Const(1)},
           {"sender": OWNER})
    b = dm({"to": Const(0x42), "amount": Const(200), "curBalance": Const(80)},
           {"sender": OWNER})
    result = combine(a, b)
    assert isinstance(result, Conflict)
    assert result.variable == "curBalance"
    assert result.scope == "local"


def test_empty_is_identity():
    d = dm({"x": Const(1)}, {"sender": OWNER})
    assert combine(EMPTY, d) == d
    assert combine(d, EMPTY) == d


def test_disjoint_union():
    got = combine(dm({"x": Const(1)}), dm({"y": Const(2)}, {"sender": OWNER}))
    assert got == dm({"x": Const(1), "y": Const(2)}, {"sender": OWNER})


def test_conflict_checked_per_scope():
    # same identifier in local and transaction scopes does not clash
    a = dm({"k": Const(1)})
    b = dm(None, {"k": Const(2)})
    got = combine(a, b)
    assert not isinstance(got, Conflict)


def test_equality_after_normalize():
    a = dm({"x": Op("ADD", Const(2), Const(3))})
    b = dm({"x": Const(5)})
    assert combine(a, b) == dm({"x": Const(5)})


def test_sender_must_be_address_typed():
    with pytest.raises(ValueError):
        dm(None, {"sender": Const(1 << 200)})


def test_render_format():
    d = dm({"to": Const(0x42), "amount": Const(200)}, {"sender": OWNER})
    assert d.render() == "<{amount -> 200, to -> 66} ; {sender -> <<owner>>}>"


# --- restrict ----------------------------------------------------------------

PLAN = TrackingPlan(arg_order=("a0", "a1", "a2", "a3"),
                    storage_load_order=("ld0", "ld1"),
                    tx_arg_order=("f.a0", "f.a1", "f.a2"))


def test_restrict_keeps_first_three_args():
    d = dm({f"a{i}": Const(i) for i in range(4)})
    got = restrict(d, DEFAULT_BUDGET, PLAN)
    assert set(got.local_map) == {"a0", "a1", "a2"}


def test_restrict_keeps_first_storage_load():
    d = dm({"ld0": Const(1), "ld1": Const(2)})
    got = restrict(d, DEFAULT_BUDGET, PLAN)
    assert set(got.local_map) == {"ld0"}


def test_restrict_empty():
    assert restrict(EMPTY, DEFAULT_BUDGET, PLAN) == EMPTY


def test_restrict_tx_keeps_sender_and_two_entry_args():
    d = dm(None, {"sender": OWNER, "f.a0": Const(1), "f.a1": Const(2),
                  "f.a2": Const(3)})
    got = restrict(d, DEFAULT_BUDGET, PLAN)
    assert set(got.transaction_map) == {"sender", "f.a0", "f.a1"}


def test_restrict_configurable_bounds():
    budget = DependencyBudget(local_args=1, storage_loads=2, tx_args=1)
    d = dm({"a0": Const(0), "a1": Const(1), "ld0": Const(2), "ld1": Const(3)},
           {"sender": OWNER, "f.a0": Const(4), "f.a1": Const(5)})
    got = restrict(d, budget, PLAN)
    assert set(got.local_map) == {"a0", "ld0", "ld1"}
    assert set(got.transaction_map) == {"sender", "f.a0"}


def test_restrict_never_produces_conflict_shape():
    d = dm({"zz": Const(9)})
    got = restrict(d, DEFAULT_BUDGET, PLAN)
    assert isinstance(got, DependencyMap)
    assert got.local == ()


# --- algebra (randomized) -----------------------------------------------------

VARS = ("a", "b", "c", "d")
VALUES = (Const(0), Const(1), Const(2), Sym("<<owner>>", True))


def random_map(rng: random.Random) -> DependencyMap:
    local = {v: rng.choice(VALUES) for v in VARS if rng.random() < 0.5}
    tx = {}
    if rng.random() < 0.5:
        tx["sender"] = rng.choice((Sym("<<owner>>", True),
                                   Sym("<<unprivileged-user>>", True)))
    return DependencyMap.of(local, tx)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_combine_commutative(seed):
    rng = random.Random(seed)
    a, b = random_map(rng), random_map(rng)
    ab, ba = combine(a, b), combine(b, a)
    if isinstance(ab, Conflict):
        assert isinstance(ba, Conflict) and ab.variable == ba.variable
    else:
        assert ab == ba


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_combine_associative_and_absorbing(seed):
    rng = random.Random(seed)
    a, b, c = (random_map(rng) for _ in range(3))
    left = combine(a, b)
    right = combine(b, c)
    lhs = left if isinstance(left, Conflict) else combine(left, c)
    rhs = right if isinstance(right, Conflict) else combine(a, right)
    if isinstance(lhs, Conflict) or isinstance(rhs, Conflict):
        # conflict is absorbing in any association order
        assert isinstance(lhs, Conflict) and isinstance(rhs, Conflict)
    else:
        assert lhs == rhs


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_combine_idempotent(seed):
    d = random_map(random.Random(seed))
    assert combine(d, d) == d


# equal values built apart: a clash-free merge must keep the left map's
# entry
TWINS = VALUES + (Const(1), Const(2))


def twinned_map(rng: random.Random) -> DependencyMap:
    local = tuple((v, rng.choice(TWINS)) for v in VARS if rng.random() < 0.5)
    tx = ()
    if rng.random() < 0.5:
        tx = (("f.a", rng.choice(TWINS)),)
    if rng.random() < 0.5:
        tx += (("sender", rng.choice((Sym("<<owner>>", True),
                                      Sym("<<unprivileged-user>>", True)))),)
    return DependencyMap(local, tx)


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_combine_merge_matches_dict_reference(seed):
    rng = random.Random(seed)
    a, b = twinned_map(rng), twinned_map(rng)
    got, want = combine(a, b), combine_dict(a, b)
    assert type(got) is type(want)
    assert got == want  # a Conflict names the same variable, scope, values
    assert got.render() == want.render()
    if not isinstance(want, Conflict) and all(
            {v for v, _ in mine} <= {v for v, _ in theirs}
            for mine, theirs in ((b.local, a.local),
                                 (b.transaction, a.transaction))):
        assert got is a  # b adds no variable: no copy of a


def test_combine_returns_a_itself_when_b_adds_no_variable():
    a = DependencyMap((("x", Const(1)), ("y", Const(2))), (("sender", OWNER),))
    b = DependencyMap((("y", Const(2)),), (("sender", OWNER),))
    assert combine(a, b) is a
    # the first clash in b's order is the Conflict, also after a variable
    # that b adds
    c = DependencyMap((("w", Const(0)), ("x", Const(3)), ("y", Const(4))), ())
    assert combine(a, c) == Conflict("x", "local", Const(1), Const(3))

