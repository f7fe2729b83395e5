"""Engine semantics: seeding, propagation, path sensitivity, storage rounds."""

import copy
import os
import pickle
import random
import subprocess
import sys

import pytest

from symvalic.deps import DependencyBudget, DependencyMap
from symvalic.parser import parse
from symvalic.symexpr import (
    Const, OWNER, OWNER_UNIQUE, UNPRIVILEGED_USER, USER_UNIQUE, WORD,
)
from symvalic.valueflow import AnalysisConfig, analyze, seed_inputs

from conftest import FIXTURES, gate_source
from helpers import (
    Reverted, gen_oracle_contract, gen_storage_contract, run_concrete,
)
from test_cli import package_env


def consts(values):
    return {Const(v) for v in values}


# --- seeding -----------------------------------------------------------------


def test_seed_numeric_with_no_program_constants():
    c = parse("contract T { function f(uint x) public { y = x; } }")
    seeds = seed_inputs(c.function("f"), c)
    assert set(seeds["x"]) == consts({0, 1, WORD - 1})


def test_seed_address_param_gets_constants_and_free_symbols(safe_contract):
    seeds = seed_inputs(safe_contract.function("deposit"), safe_contract)
    assert set(seeds["to"]) == {Const(0x42, hex_hint=True), OWNER_UNIQUE,
                                USER_UNIQUE}


def test_seed_sender_gets_bound_identities(safe_contract):
    seeds = seed_inputs(safe_contract.function("deposit"), safe_contract)
    sender = set(seeds["msg.sender"])
    assert OWNER in sender and UNPRIVILEGED_USER in sender
    assert Const(0x42, hex_hint=True) in sender


def test_seed_bool_param():
    c = parse("contract T { function f(bool b) public { require(b); } }")
    seeds = seed_inputs(c.function("f"), c)
    assert set(seeds["b"]) == consts({0, 1})


def test_seed_numeric_includes_small_and_text_constants():
    c = parse("contract T { function f(uint x) public {"
              " require(x < 90); y = x + 300; } }")
    seeds = seed_inputs(c.function("f"), c)
    got = {s.value for s in seeds["x"]}
    # pool has two constants, both under the draw bounds: all present
    assert {0, 1, 90, 300, WORD - 1} <= got


def test_seeding_is_deterministic_across_runs():
    src = ("contract T { function f(uint x) public { y = x + "
           + " + ".join(str(3 + 7 * i) for i in range(12)) + "; } }")
    c = parse(src)
    a = seed_inputs(c.function("f"), c, AnalysisConfig(seed=99))
    b = seed_inputs(c.function("f"), c, AnalysisConfig(seed=99))
    assert a == b
    other = seed_inputs(c.function("f"), c, AnalysisConfig(seed=100))
    assert set(a["x"]) != set(other["x"])  # 12 constants > draw bound of 8


# --- fixtures from the ground-truth examples -----------------------------------


def test_whichpaths_return_set(whichpaths_contract):
    r = analyze(whichpaths_contract)
    values = {v.value for v in r.return_values("whichPaths")}
    assert values == {3, 9, 16}
    assert 4 not in values


def test_safe_inferences_exact(safe_contract):
    cfg = AnalysisConfig(transaction_rounds=1)
    r = analyze(safe_contract, cfg, entry_seeds={
        ("deposit", "to"): [Const(0x42, hex_hint=True)],
        ("deposit", "amount"): [200],
    })
    infs = r.var_may_be("nextBalance")
    by_value = {i.value.value: i.deps for i in infs}
    assert set(by_value) == {181, 260}
    assert by_value[181] == DependencyMap.of(
        {"to": Const(0x42), "amount": Const(200), "curBalance": Const(1)},
        {"sender": OWNER})
    assert by_value[260] == DependencyMap.of(
        {"to": Const(0x42), "amount": Const(200), "curBalance": Const(80)},
        {"sender": OWNER})


def test_safe_unprivileged_hypothesis_rejected(safe_contract):
    r = analyze(safe_contract, AnalysisConfig(transaction_rounds=1))
    assert r.var_may_be("nextBalance",
                        tx={"sender": UNPRIVILEGED_USER}) == ()


def test_return_constant_under_both_hypotheses():
    c = parse("contract T { function f() public { return 0; } }")
    r = analyze(c)
    values = r.returns["f"]
    assert {v.value for v, _ in values} == {0}
    senders = {d.transaction_map["sender"] for _, d in values}
    assert {OWNER, UNPRIVILEGED_USER} <= senders
    for _, d in values:
        assert d.local == ()


def test_guarded_selfdestruct_reachability(guarded_contract):
    r = analyze(guarded_contract)
    sid = next(s.sid for f in guarded_contract.functions
               for s in f.statements() if s.op == "SELFDESTRUCT")
    assert len(r.stmt_reachable(sid, tx={"sender": OWNER})) == 1
    assert r.stmt_reachable(sid, tx={"sender": UNPRIVILEGED_USER}) == ()


def test_unguarded_selfdestruct_reachability(unguarded_contract):
    r = analyze(unguarded_contract)
    sid = next(s.sid for f in unguarded_contract.functions
               for s in f.statements() if s.op == "SELFDESTRUCT")
    assert r.stmt_reachable(sid, tx={"sender": UNPRIVILEGED_USER}) != ()


def test_code_after_require_false_unreachable():
    c = parse("contract T { function f() public { require(0); x = 1; } }")
    r = analyze(c)
    assign = next(s.sid for s in c.function("f").statements()
                  if s.result == "x")
    assert r.stmt_reachable(assign) == ()
    assert r.var_may_be("x") == ()


def test_sender_constant_hypothesis_passes_matching_guard():
    c = parse("contract T { mapping seen; function f() public {"
              " require(msg.sender == 0x42); seen[0x42] = 1; } }")
    r = analyze(c)
    store = next(s.sid for s in c.function("f").statements()
                 if s.op == "SSTORE")
    facts = r.stmt_reachable(store)
    senders = {f.deps.transaction_map["sender"] for f in facts}
    assert senders == {Const(0x42)}


# --- storage across transaction rounds -----------------------------------------


def test_constructor_storage_visible_in_round_one(safe_contract):
    r = analyze(safe_contract, AnalysisConfig(transaction_rounds=1))
    cur = {i.value.value for i in r.var_may_be("curBalance",
                                               local={"to": Const(0x42)})}
    assert cur == {1, 80}


def test_storage_feedback_needs_second_round(safe_contract):
    seeds = {("deposit", "to"): [Const(0x42, hex_hint=True)],
             ("deposit", "amount"): [200]}
    r1 = analyze(safe_contract, AnalysisConfig(transaction_rounds=1),
                 entry_seeds=seeds)
    r2 = analyze(safe_contract, AnalysisConfig(transaction_rounds=2),
                 entry_seeds=seeds)
    v1 = {i.value.value for i in r1.var_may_be("nextBalance")}
    v2 = {i.value.value for i in r2.var_may_be("nextBalance")}
    assert v1 == {181, 260}
    assert {181, 260, 361, 440} <= v2  # 181/260 fed back through balanceOf


def test_depth_budget_terminates_feedback():
    c = parse("contract T { uint acc; function constructor() internal {"
              " acc = 1; } function bump() public { acc = acc + 0; } }")
    # identity arithmetic keeps the same value flowing; depth must not grow
    r = analyze(c, AnalysisConfig(transaction_rounds=3,
                                  arithmetic_depth_limit=2))
    assert not r.truncated
    assert {v.value for a, v, _ in r.storage if a == Const(0)} == {1}


def test_never_written_cell_reads_zero():
    c = parse("contract T { mapping m; function f(address k) public {"
              " v = m[k]; return v; } }")
    r = analyze(c)
    assert {x.value for x, _ in r.returns["f"]} == {0}


def test_uncommitted_write_invisible_within_round():
    c = parse("contract T { uint cell; function f() public {"
              " cell = 7; v = cell; return v; } }")
    r = analyze(c, AnalysisConfig(transaction_rounds=1))
    # the write feeds the next round, not the current read
    assert {x.value for x, _ in r.returns["f"]} == {0}
    r2 = analyze(c, AnalysisConfig(transaction_rounds=2))
    assert {x.value for x, _ in r2.returns["f"]} == {0, 7}


# --- transaction dependencies across internal calls -----------------------------


def test_entry_args_become_tx_deps_in_internal_callee():
    c = parse("contract T { mapping notes;"
              " function outer(uint a, uint b, uint c) public {"
              "   call helper(a + b + c); }"
              " function helper(uint v) internal {"
              "   notes[msg.sender] = v + 1; } }")
    r = analyze(c)
    helper_infs = [i for i in r.inferences if i.function == "helper"]
    assert helper_infs
    qualified = {k for i in helper_infs for k in i.deps.transaction_map}
    # the first two entry-point arguments migrate, the third is beyond budget
    assert {"outer.a", "outer.b"} <= qualified
    assert "outer.c" not in qualified
    # the callee's own parameter is a local dependency there
    local_keys = {k for i in helper_infs for k in i.deps.local_map}
    assert "v" in local_keys


def test_internal_recursion_is_cut_not_fatal():
    c = parse("contract T { function f(uint a) public { call f(a); } }")
    r = analyze(c)
    assert any("skipped" in n for n in r.notes)


# --- solver-gated requires -------------------------------------------------------


def test_disequality_gate_keeps_free_symbol_unconstrained():
    c = parse("contract T { address owner;"
              " function constructor() internal { owner = msg.sender; }"
              " function pay(address to) public {"
              "   if (to == owner) { } else { transfer(to, 1); } } }")
    r = analyze(c)
    transfer = next(cs for cs in r.calls if cs.callee == "TRANSFER")
    unpriv_args = {v for v, d in transfer.arg_values[0]
                   if d.transaction_map.get("sender") == UNPRIVILEGED_USER}
    # the not-the-owner arm is reachable with the recipient still tainted
    assert USER_UNIQUE in unpriv_args


def test_negated_equality_require_continues():
    c = parse("contract T { address owner;"
              " function constructor() internal { owner = msg.sender; }"
              " function pay(address to) public {"
              "   require(!(to == owner)); transfer(to, 1); } }")
    r = analyze(c)
    transfer = next(cs for cs in r.calls if cs.callee == "TRANSFER")
    values = {v for v, _ in transfer.arg_values[0]}
    assert USER_UNIQUE in values


def test_value_for_var_substitution_at_require():
    c = parse("contract T { address owner;"
              " function constructor() internal { owner = msg.sender; }"
              " function pay(address to) public {"
              "   require(to == owner); transfer(to, 1); } }")
    r = analyze(c)
    transfer = next(cs for cs in r.calls if cs.callee == "TRANSFER")
    unpriv_args = [v for v, d in transfer.arg_values[0]
                   if d.transaction_map.get("sender") == UNPRIVILEGED_USER]
    assert unpriv_args and all(v == OWNER for v in unpriv_args)
    assert all(not any(n == USER_UNIQUE for n in v.walk())
               for v in unpriv_args)
    # the solving assignment lands in the recorded dependencies
    facts = r.stmt_reachable(transfer.stmt)
    locals_seen = {f.deps.local_map.get("to") for f in facts
                   if f.deps.transaction_map.get("sender") == UNPRIVILEGED_USER}
    assert locals_seen == {OWNER}


# --- invariants -------------------------------------------------------------------


def test_monotone_across_rounds(safe_contract):
    r1 = analyze(safe_contract, AnalysisConfig(transaction_rounds=1))
    r2 = analyze(safe_contract, AnalysisConfig(transaction_rounds=2))
    assert set(r1.inferences) <= set(r2.inferences)
    assert set(r1.reachability) <= set(r2.reachability)


def test_deterministic_json(safe_contract):
    import json
    a = analyze(safe_contract, AnalysisConfig(seed=5))
    b = analyze(safe_contract, AnalysisConfig(seed=5))
    assert json.dumps(a.to_json_dict(), sort_keys=True) == \
        json.dumps(b.to_json_dict(), sort_keys=True)


def test_resource_cap_flags_truncated(safe_contract):
    r = analyze(safe_contract, AnalysisConfig(max_inferences=10))
    assert r.truncated
    assert any("resource cap" in n for n in r.notes)


@pytest.mark.parametrize("record, field", [
    (DependencyBudget, "local_args"), (DependencyBudget, "storage_loads"),
    (DependencyBudget, "tx_args"), (AnalysisConfig, "arithmetic_depth_limit"),
    (AnalysisConfig, "transaction_rounds"),
    (AnalysisConfig, "max_values_per_var"),
    (AnalysisConfig, "max_alts_per_block"),
    (AnalysisConfig, "max_inferences")])
def test_constructors_reject_a_bound_of_zero(record, field):
    # a zero value or alternative bound would make _trim count forever
    with pytest.raises(ValueError):
        record(**{field: 0})
    values = list(record())
    values[record._fields.index(field)] = 0
    with pytest.raises(ValueError):
        record(*values)


@pytest.mark.parametrize("budget", [0.0, -1.0, float("nan")])
def test_config_rejects_a_time_budget_that_is_not_positive(budget):
    # 0.0 used to set no deadline at all, and NaN one never reached
    with pytest.raises(ValueError):
        AnalysisConfig(time_budget=budget)
    assert AnalysisConfig(time_budget=1e-9).time_budget == 1e-9
    assert AnalysisConfig(time_budget=None).time_budget is None


def test_config_round_trips_through_pickle():
    config = AnalysisConfig(budget=DependencyBudget(2, 3, 4), seed=9,
                            time_budget=None)
    copy = pickle.loads(pickle.dumps(config))
    assert copy == config
    assert type(copy) is AnalysisConfig
    assert type(copy.budget) is DependencyBudget


def test_values_always_normalized_and_budgeted(safe_contract):
    from symvalic.symexpr import normalize
    r = analyze(safe_contract)
    for i in r.inferences:
        assert i.value == normalize(i.value)
        assert len(i.deps.local) <= 4  # 3 args + 1 storage load
        assert len(i.deps.transaction) <= 3  # sender + 2 entry args


TWO_LOADS = """contract L {
    uint a;
    uint b;

    function constructor() internal {
        a = 1;
        b = 2;
    }

    function f() public {
        va = a;
        vb = b;
        x = va + vb;
    }
}
"""


def test_storage_load_budget_tracks_the_first_loads():
    contract = parse(TWO_LOADS)
    tracked = {}
    for loads in (1, 2, 3):
        config = AnalysisConfig(budget=DependencyBudget(storage_loads=loads))
        r = analyze(contract, config)
        tracked[loads] = {var for i in r.inferences
                          for var in i.deps.local_map}
    assert tracked == {1: {"va"}, 2: {"va", "vb"}, 3: {"va", "vb"}}


def test_var_may_be_taint_witness_shape():
    c = parse("contract T { mapping sink; function put(address who) public {"
              " sink[0x7] = 1; keep = who; } }")
    r = analyze(c)
    witnesses = r.var_may_be("keep", value=USER_UNIQUE,
                             tx={"sender": UNPRIVILEGED_USER})
    assert witnesses
    for w in witnesses:
        assert w.value == USER_UNIQUE
        assert w.deps.transaction_map["sender"] == UNPRIVILEGED_USER


def test_var_may_be_wildcards(whichpaths_contract):
    r = analyze(whichpaths_contract)
    all_y = r.var_may_be("y")
    assert {i.value.value for i in all_y} >= {3, 4, 9, 16}
    only16 = r.var_may_be("y", value=16)
    assert {i.value.value for i in only16} == {16}


def test_result_does_not_depend_on_earlier_analyses():
    b = parse(gate_source("B", "48879"))
    analyze(parse(gate_source("A", "0xbeef")))
    after_a = analyze(b).to_json_dict()
    assert "EQ(48879, <<owner-unique-value>>)" in str(after_a)
    assert analyze(b).to_json_dict() == after_a


def test_stmt_reachable_matches_a_scan_of_the_facts(guarded_contract):
    r = analyze(guarded_contract)
    patterns = ({}, {"tx": {"sender": OWNER}},
                {"tx": {"sender": UNPRIVILEGED_USER}})
    sids = [s.sid for f in guarded_contract.functions for s in f.statements()]
    for sid in sids + [max(sids) + 1]:
        for pattern in patterns:
            want = tuple(
                f for f in r.reachability if f.stmt == sid
                and all(f.deps.transaction_map.get(k) == v
                        for k, v in pattern.get("tx", {}).items()))
            assert r.stmt_reachable(sid, **pattern) == want


# --- oracle equivalence (spot checks; the acceptance suite runs 20+) -------------


def _oracle_expected(contract, fn, seed_values, storage=None):
    expected = set()
    names = sorted(seed_values)

    def rec(i, env):
        if i == len(names):
            try:
                out, _ = run_concrete(contract, fn, dict(env),
                                      storage=storage)
            except Reverted:
                return
            if out is not None:
                expected.add(out)
            return
        for v in seed_values[names[i]]:
            env[names[i]] = v
            rec(i + 1, env)

    rec(0, {})
    return expected


@pytest.mark.parametrize("seed", [11, 23, 37])
def test_oracle_equivalence_spot(seed):
    rng = random.Random(seed)
    src, fn, params = gen_oracle_contract(rng, seed)
    contract = parse(src)
    seed_values = {p: sorted(rng.sample(range(10), 3)) for p in params}
    overrides = {(fn, p): [Const(v) for v in vals]
                 for p, vals in seed_values.items()}
    r = analyze(contract, AnalysisConfig(transaction_rounds=1),
                entry_seeds=overrides)
    engine_values = {v.value for v, _ in r.returns.get(fn, ())}
    assert engine_values == _oracle_expected(contract, fn, seed_values), src


@pytest.mark.parametrize("seed", [5, 17, 29, 41, 53])
def test_oracle_equivalence_with_constructor_storage(seed):
    rng = random.Random(seed)
    src, fn, params = gen_storage_contract(rng, seed)
    contract = parse(src)
    seed_values = {p: sorted(rng.sample(range(10), 3)) for p in params}
    overrides = {(fn, p): [Const(v) for v in vals]
                 for p, vals in seed_values.items()}
    r = analyze(contract, AnalysisConfig(transaction_rounds=1),
                entry_seeds=overrides)
    engine_values = {v.value for v, _ in r.returns.get(fn, ())}

    _, storage = run_concrete(contract, "constructor", {})
    expected = _oracle_expected(contract, fn, seed_values, storage=storage)
    assert engine_values == expected, src


# --- stored hashes across processes ---------------------------------------------

PICKLER = """
import pickle, sys
from symvalic.deps import DependencyMap
from symvalic.parser import parse
from symvalic.symexpr import OWNER, USER_UNIQUE, Const
from symvalic.valueflow import _Val, analyze
result = analyze(parse(open(sys.argv[1]).read()))
deps = DependencyMap((("to", USER_UNIQUE),), (("sender", OWNER),))
vals = [_Val(OWNER, deps, 5), _Val(Const(66, hex_hint=True), deps, 4)]
sys.stdout.buffer.write(pickle.dumps((hash(OWNER.name), result, deps, vals)))
"""


def test_unpickled_values_hash_as_local_ones_under_another_hash_seed():
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    proc = subprocess.run(
        [sys.executable, "-c", PICKLER, str(FIXTURES / "safe.svc")],
        capture_output=True, check=True, env=package_env(PYTHONHASHSEED=seed))
    child_hash, result, deps, vals = pickle.loads(proc.stdout)
    assert child_hash != hash(OWNER.name)  # the two processes hash apart
    values = ([i.value for i in result.inferences]
              + [i.deps for i in result.inferences]
              + [f.deps for f in result.reachability] + [deps] + vals)
    assert OWNER in values and len(values) > 20
    table = {}
    for x in values:
        mine = copy.deepcopy(x)  # rebuilt here through its __reduce__
        assert mine == x and hash(mine) == hash(x)
        table[mine] = x
    assert all(table[x] == x for x in values)
    assert set(values) == set(table)
    assert result.var_may_be("to", value=0x42)
