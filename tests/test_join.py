"""The engine's indexed operand join, its bounds and its time budget."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from symvalic.deps import Conflict, DependencyMap, combine
from symvalic.parser import parse
from symvalic.symexpr import Const, OWNER, Sym, UNPRIVILEGED_USER
from symvalic.valueflow import (
    AnalysisConfig, _Alt, _Engine, _Timeout, _Val, _subst_deps, _trim,
    analyze,
)

from helpers import product_combos

FREE = Sym("s", False)
# Const(1) and its hex-hinted twin compare equal but print differently
VALUES = (Const(0), Const(1), Const(1, hex_hint=True), Const(7), FREE, OWNER)
ENV_VARS = ("a", "b", "c")
# "a" and "b" are tracked arguments; "missing" has no values; "@tok" is an
# undeclared contract identifier
OPERANDS = ENV_VARS + ("missing", "@tok", Const(3))
TRACKED = (frozenset({"a", "b"}), frozenset({"sender"}))


def engine() -> _Engine:
    contract = parse("contract T { function f() public { } }")
    return _Engine(contract, AnalysisConfig(), None)


def random_deps(rng: random.Random) -> DependencyMap:
    local = tuple((v, rng.choice(VALUES)) for v in ("a", "b", "c", "x")
                  if rng.random() < 0.4)
    tx = ()
    if rng.random() < 0.3:
        tx += (("f.a", rng.choice(VALUES)),)
    if rng.random() < 0.7:
        tx += (("sender", rng.choice((OWNER, UNPRIVILEGED_USER))),)
    return DependencyMap(local, tx)


def random_env(rng: random.Random) -> dict:
    return {
        var: tuple(_Val(rng.choice(VALUES), random_deps(rng), rng.randint(0, 5))
                   for _ in range(rng.randint(0, 5)))
        for var in ENV_VARS
    }


def random_alts(rng: random.Random, subst: bool) -> list:
    alts = []
    for _ in range(rng.randint(0, 4)):
        s = ()
        if subst and rng.random() < 0.3:
            s = ((FREE, rng.choice((Const(1), Const(7)))),)
        alts.append(_Alt(random_deps(rng), frozenset(), s))
    return alts


def printed(rows) -> list:
    return [(alt, [v.render() for v in vals], d.render(), depths)
            for alt, vals, d, depths in rows]


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_join_matches_product_and_prune(seed):
    rng = random.Random(seed)
    env = random_env(rng)
    alts = random_alts(rng, subst=True)
    # duplicated operands take one value at every position
    operands = [rng.choice(OPERANDS) for _ in range(rng.randint(0, 3))]
    e = engine()
    got = list(e._combos(operands, env, alts, TRACKED))
    want = list(product_combos(
        lambda op, alt: e._resolve(op, env, alt, TRACKED), operands, alts))
    assert got == want
    assert printed(got) == printed(want)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_tagged_edge_matches_pairwise_combination(seed):
    rng = random.Random(seed)
    env = random_env(rng)
    alts = random_alts(rng, subst=rng.random() < 0.5)
    e = engine()
    env_in, alts_in = {}, {}
    e._flow_edge(env, alts, "b1", env_in, alts_in, tag=True)
    want = {}
    for var, vals in env.items():
        keep = {}
        for val in vals:
            for alt in alts:
                v = e._subst_val(val, alt)
                d = combine(v.deps, alt.deps)
                if not isinstance(d, Conflict):
                    keep.setdefault(_Val(v.expr, d, v.depth), None)
        if keep:
            want[var] = tuple(keep)
    got = env_in.get("b1", {})
    assert got == want
    assert {k: [(v.expr.render(), v.deps.render()) for v in vals]
            for k, vals in got.items()} == \
        {k: [(v.expr.render(), v.deps.render()) for v in vals]
         for k, vals in want.items()}


def test_substitution_that_changes_nothing_returns_its_input():
    e = engine()
    deps = DependencyMap((("a", FREE), ("b", Const(1, hex_hint=True))),
                         (("sender", OWNER),))
    val = _Val(FREE, deps, 3)
    untouched = _Alt(deps, subst=((Sym("t", False), Const(9)),))
    assert _subst_deps(deps, dict(untouched.subst)) is deps
    assert e._subst_val(val, untouched) is val
    solved = _Alt(deps, subst=((FREE, Const(9)),))
    got = e._subst_val(val, solved)
    assert (got.expr, got.depth) == (Const(9), 3)
    assert got.deps.render() == "<{a -> 9, b -> 0x1} ; {sender -> <<owner>>}>"


def test_trim_keeps_every_sender_round_robin():
    def val(n, sender):
        return _Val(Const(n), DependencyMap((), (("sender", sender),)), 5)

    owners = [val(n, OWNER) for n in range(5)]
    users = [val(n, UNPRIVILEGED_USER) for n in range(2)]
    unbound = _Val(Const(9), DependencyMap(), 5)
    items = owners + users + [unbound]
    # round 1: owner 0, user 0, unbound; round 2: owner 1, user 1
    assert _trim(items, 5) == owners[:2] + users + [unbound]
    assert _trim(items, 2) == [owners[0], users[0]]


def test_alternative_bound_trims_an_entry_block_round_robin():
    # the address constant 0x42 is a third sender beside owner and user
    contract = parse("""contract Pay {
    mapping balanceOf;

    function pay(address to, uint amount) public {
        balanceOf[0x42] = amount;
        balanceOf[to] = amount;
    }
}""")

    def senders(result) -> dict:
        by_stmt: dict = {}
        for f in result.reachability:
            by_stmt.setdefault(f.stmt, set()).add(f.deps.sender().render())
        return by_stmt

    full = senders(analyze(contract))
    r = analyze(contract, AnalysisConfig(max_alts_per_block=2))
    assert "alternative bound trimmed a block" in r.notes
    assert not r.truncated
    assert full and all(s == {"<<owner>>", "<<unprivileged-user>>", "0x42"}
                        for s in full.values())
    assert senders(r) == {stmt: {"<<owner>>", "<<unprivileged-user>>"}
                          for stmt in full}


def branchy_like(arms: int) -> str:
    """A Big-like contract: an unguarded transfer after `arms` chained
    ifs over mapping and scalar storage and uint parameters."""
    shapes = ("if (v0 == p0) {{ v2 = v2 + s1; }} else {{ v2 = v2 - {c}; }}",
              "if (v1 < p1) {{ v1 = v1 + v0; }} else {{ v1 = v1 * {c}; }}",
              "if (v2 > s1) {{ v2 = v2 / {c}; }}",
              "if (v0 < v1) {{ v2 = v2 + v1; }} else {{ v0 = v0 + {c}; }}",
              "if (p2 == {c}) {{ v1 = s0; }} else {{ v2 = v2 * {c}; }}")
    consts = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
    chain = "\n        ".join(shapes[i % len(shapes)].format(
        c=consts[i % len(consts)]) for i in range(arms))
    return f"""contract Wide {{
    address owner;
    uint s0;
    uint s1;
    mapping m0;

    function constructor() internal {{
        owner = msg.sender;
        s0 = 21;
        m0[0x48] = 16;
    }}

    function setS(uint w, address k) public {{
        s1 = w;
        m0[k] = w;
    }}

    function pay(address to, uint p0, uint p1, uint p2) public {{
        v0 = m0[to];
        v1 = s0;
        v2 = p0;
        {chain}
        transfer(to, v2);
    }}
}}
"""


def test_time_budget_enforced_inside_combination_loops():
    # Unbounded, this takes about 2 s on a 2-core x86-64 VM (CPython 3.11).
    # There, product-and-prune with the deadline checked only between
    # blocks ran for 26 s under a 0.5 s budget: single blocks outlasted it.
    contract = parse(branchy_like(30))
    began = time.monotonic()
    r = analyze(contract, AnalysisConfig(max_values_per_var=512,
                                         time_budget=0.5))
    took = time.monotonic() - began
    assert r.truncated
    assert took < 2.0


def test_combination_loops_check_the_deadline():
    e = engine()
    e.deadline = time.monotonic() - 1.0
    env = {"a": (_Val(Const(1), DependencyMap(), 5),)}
    alts = [_Alt(DependencyMap((), (("sender", OWNER),)))]
    with pytest.raises(_Timeout):
        next(e._combos(["a"], env, alts, TRACKED))
    with pytest.raises(_Timeout):
        e._flow_edge(env, alts, "b1", {}, {}, tag=True)
