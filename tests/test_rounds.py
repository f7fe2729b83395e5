"""The walk memo across transaction rounds: an entry point, or an internal
call with the same inputs, is walked again only if a commit has changed a
storage cell its last walk read, and the result equals that of walking
every entry in every round and every internal call anew."""

import random

import pytest

from symvalic.clients import run_detectors
from symvalic.parser import parse
from symvalic.valueflow import AnalysisConfig, _Engine, analyze

from conftest import FIXTURES, fixture_contract
from helpers import analyze_every_round, gen_rounds_contract, gen_storage_contract


def assert_same_as_every_round(contract, config=AnalysisConfig()):
    got = analyze(contract, config)
    want = analyze_every_round(contract, config)
    # every in-memory field in order: inferences, reachability, calls,
    # stores, returns, storage, notes, ...
    for f in got._fields:
        assert getattr(got, f) == getattr(want, f), f
    assert got.to_json_dict() == want.to_json_dict()
    assert run_detectors(got) == run_detectors(want)
    return got


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.svc")))
def test_fixture_equals_every_round(name):
    assert_same_as_every_round(fixture_contract(name))


def test_memo_hit_inherits_the_walk_reads():
    # b only memo-hits a's walk of helper(0) in round 1; in round 2 a
    # calls helper(1), so b must walk helper(0) against the new k itself
    r = assert_same_as_every_round(fixture_contract("memo_rounds.svc"))
    assert len(r.inferences) == 32


@pytest.mark.parametrize("rounds", [1, 2, 3, 4])
def test_generated_storage_contracts_equal_every_round(rounds):
    rng = random.Random(11)
    config = AnalysisConfig(transaction_rounds=rounds)
    for i in range(40):
        src, _, _ = gen_storage_contract(rng, i)
        assert_same_as_every_round(parse(src), config)


@pytest.mark.parametrize("rounds", [1, 2, 3, 4])
def test_generated_round_contracts_equal_every_round(rounds):
    # seed 1 includes contracts where an entry's only read of a changed
    # cell is through a memoized helper walk
    rng = random.Random(1)
    config = AnalysisConfig(transaction_rounds=rounds)
    for i in range(40):
        assert_same_as_every_round(parse(gen_rounds_contract(rng, i)), config)


def walks_per_round(monkeypatch, contract, config=AnalysisConfig()):
    """The (function, entry point) of each walk run before each commit, one
    list per commit."""
    rounds = [[]]
    walk, commit = _Engine._walk, _Engine._commit

    def logged_walk(self, fn, entry_env, entry_alts, entry_fn, stack):
        rounds[-1].append((fn.name, entry_fn.name))
        return walk(self, fn, entry_env, entry_alts, entry_fn, stack)

    def logged_commit(self):
        rounds.append([])
        return commit(self)

    monkeypatch.setattr(_Engine, "_walk", logged_walk)
    monkeypatch.setattr(_Engine, "_commit", logged_commit)
    analyze(contract, config)
    return rounds[:-1]


def entries_per_round(monkeypatch, contract, config=AnalysisConfig()):
    """The entry points walked before each commit, one list per commit."""
    return [[fn for fn, entry in walks if fn == entry]
            for walks in walks_per_round(monkeypatch, contract, config)]


def test_round_after_unread_writes_runs_no_entry(monkeypatch):
    # round 1 writes a and b; round 2 re-runs only copy, which reads a,
    # and writes only b, which nobody reads: round 3 has nothing to do
    c = parse("contract Quiet { uint a; uint b;"
              " function seta(uint v) public { a = v; }"
              " function copy() public { x = a; b = x; } }")
    assert entries_per_round(monkeypatch, c) == [["seta", "copy"], ["copy"], []]


def test_entries_reading_changed_cells_run_every_round(monkeypatch):
    c = parse("contract Busy { uint n;"
              " function inc() public { x = n; n = x + 1; }"
              " function dbl() public { y = n; n = y * 2; } }")
    config = AnalysisConfig(transaction_rounds=4)
    assert entries_per_round(monkeypatch, c, config) == [["inc", "dbl"]] * 4
    assert_same_as_every_round(c, config)


def test_deeper_stored_value_reruns_its_readers(monkeypatch):
    # round 2 stores b = 7 through copy at depth 3; round 3 stores it at
    # depth 4 through setb, once c = 1: b changed only in depth, and read
    # must run again in round 4 to store d = 14 at depth 3, not 2
    c = parse("contract Depth { uint a; uint b; uint c; uint e; uint d;"
              " function seta() public { a = 7; }"
              " function copy() public { x = a; b = x; }"
              " function sete() public { e = 5; }"
              " function setc() public { u = e; c = u - 4; }"
              " function setb() public { t = c; require(t == 1); b = 7; }"
              " function read() public { v = b; d = v * 2; } }")
    config = AnalysisConfig(transaction_rounds=5)
    assert entries_per_round(monkeypatch, c, config) == [
        ["seta", "copy", "sete", "setc", "setb", "read"],
        ["copy", "setc", "setb", "read"], ["setb", "read"], ["read"], []]
    r = assert_same_as_every_round(c, config)
    assert [(v.render(), depth) for a, v, depth in r.storage
            if a.render() == "4"] == [("0", 4), ("14", 3)]


def test_an_unchanged_helper_walk_is_reused_in_later_rounds(monkeypatch):
    # inc reads n, which every commit changes, so it runs in every round;
    # helper reads only m, which nothing writes, so each of its two walks
    # (one per sender) is reused in every later round
    c = parse("contract Reuse { uint n; uint m;"
              " function inc() public { x = n; n = x + 1; call helper(1); }"
              " function helper(uint y) internal { z = m; w = z + y; } }")
    config = AnalysisConfig(transaction_rounds=4)
    assert walks_per_round(monkeypatch, c, config) == [
        [("inc", "inc"), ("helper", "inc"), ("helper", "inc")],
        [("inc", "inc")], [("inc", "inc")], [("inc", "inc")]]
    assert_same_as_every_round(c, config)
