"""Live variables at CFG edges: a branch or jump hands its target only the
variables that some path from the target reads before assigning them, and
the result equals that of carrying every variable across every edge,
apart from the notes of trims that dropped values nobody reads."""

import random

from symvalic.clients import run_detectors
from symvalic.parser import parse
from symvalic.valueflow import AnalysisConfig, analyze

from conftest import FIXTURES, fixture_contract
from helpers import (
    analyze_every_variable_live, gen_oracle_contract, gen_rounds_contract,
    gen_storage_contract,
)
from test_acceptance import Stopwatch
from test_join import branchy_like


def assert_same_as_every_variable_live(contract, config=AnalysisConfig()):
    got = analyze(contract, config)
    want = analyze_every_variable_live(contract, config)
    # every in-memory field in order: inferences, reachability, calls,
    # stores, returns, storage, ...; trims of dead variables are gone
    for f in got._fields:
        if f != "notes":
            assert getattr(got, f) == getattr(want, f), f
    assert set(got.notes) <= set(want.notes)
    doc, want_doc = got.to_json_dict(), want.to_json_dict()
    del doc["notes"], want_doc["notes"]
    assert doc == want_doc
    assert run_detectors(got) == run_detectors(want)
    return got, want


def generated_contracts():
    rng = random.Random(18)
    for i in range(15):
        yield parse(gen_oracle_contract(rng, i)[0])
        yield parse(gen_storage_contract(rng, i)[0])
        yield parse(gen_rounds_contract(rng, i))
    for arms in (5, 12, 30):
        yield parse(branchy_like(arms))


def test_pruned_edges_equal_every_variable_live():
    with Stopwatch(30.0, "live-variable edges"):
        for path in sorted(FIXTURES.glob("*.svc")):
            assert_same_as_every_variable_live(fixture_contract(path.name))
        for contract in generated_contracts():
            for seed in (1, 7):
                assert_same_as_every_variable_live(
                    contract, AnalysisConfig(seed=seed))


def test_dead_parameters_leave_no_trim_note():
    # pay's p0 and kill's q0 are read only by the first branch condition;
    # carried past it, their values were trimmed and noted, though no
    # statement read what the trim dropped
    got, want = assert_same_as_every_variable_live(
        fixture_contract("branchy004.svc"))
    assert {"value bound trimmed p0", "value bound trimmed q0"} <= \
        set(want.notes)
    assert "value bound trimmed p0" not in got.notes
    assert "value bound trimmed q0" not in got.notes
    # values that are read are still trimmed, and say so
    assert "value bound trimmed p1" in got.notes
    assert (len(got.inferences), len(got.reachability)) == (917, 729)
