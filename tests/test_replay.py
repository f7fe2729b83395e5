"""The statement memo: a walk replays each statement whose inputs equal
those of an earlier execution and whose storage reads are unchanged, and
the result equals that of executing every statement anew."""

import random

import pytest

from symvalic.parser import parse
from symvalic.valueflow import AnalysisConfig, _Engine

from conftest import FIXTURES, fixture_contract
from helpers import (
    EveryRoundEngine, EveryRoundNoReplayEngine, NoReplayEngine,
    assert_same_result, gen_rounds_contract, gen_storage_contract,
)
from test_acceptance import Stopwatch
from test_join import branchy_like

FIXTURE_NAMES = sorted(p.name for p in FIXTURES.glob("*.svc"))


class CountingEngine(_Engine):
    """The engine, counting its replays by statement op."""

    def __init__(self, contract, config, entry_seeds):
        super().__init__(contract, config, entry_seeds)
        self.replayed: dict[str, int] = {}

    def _replay(self, stmt, *args):
        self.replayed[stmt.op] = self.replayed.get(stmt.op, 0) + 1
        return super()._replay(stmt, *args)


def replays(contract, config=AnalysisConfig()) -> dict:
    engine = CountingEngine(contract, config, None)
    engine.run()
    return engine.replayed


def generated():
    storage, rounds_rng = random.Random(11), random.Random(1)
    for i in range(40):
        yield parse(gen_storage_contract(storage, i)[0])
        yield parse(gen_rounds_contract(rounds_rng, i))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_equals_no_replay(name):
    assert_same_result(_Engine, NoReplayEngine, fixture_contract(name))


@pytest.mark.parametrize("rounds", [1, 2, 3, 4])
def test_generated_contracts_equal_no_replay(rounds):
    config = AnalysisConfig(transaction_rounds=rounds)
    for contract in generated():
        assert_same_result(_Engine, NoReplayEngine, contract, config)


@pytest.mark.parametrize("arms", [5, 12, 30])
def test_branchy_like_equals_no_replay(arms):
    with Stopwatch(60.0, f"branchy_like({arms}) without replay"):
        assert_same_result(_Engine, NoReplayEngine, parse(branchy_like(arms)))


def test_every_round_equals_every_round_without_replay():
    # with the walk memo off, every unchanged walk replays all through
    with Stopwatch(60.0, "every round, with and without replay"):
        contracts = [fixture_contract(name) for name in FIXTURE_NAMES]
        contracts += generated()
        contracts += [parse(branchy_like(arms)) for arms in (5, 12)]
        for contract in contracts:
            assert_same_result(EveryRoundEngine, EveryRoundNoReplayEngine,
                               contract, AnalysisConfig(transaction_rounds=4))


def test_gated_rounds_replays_the_branch_into_both_arms():
    # round 1 writes limit, which pair's else arm loads: pair runs again,
    # replays its branch on b == a and must carry both arms on, since the
    # else arm now loads 42 and stores 43
    contract = fixture_contract("gated_rounds.svc")
    counts = replays(contract)
    assert counts.get("BRANCH", 0) > 0 and counts.get("REQUIRE", 0) > 0
    r = assert_same_result(_Engine, NoReplayEngine, contract)
    assert {i.value.render() for i in r.var_may_be("x", function="pair")} \
        == {"0", "42"}
    # one constant, written 0x2a for admin and 42 for limit, prints alike
    assert [(a.render(), v.render()) for a, v, _ in r.storage
            if a.render() in ("1", "4")] == [("1", "42"), ("4", "42")]
