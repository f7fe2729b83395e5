"""Corpus summaries, aggregation, fact inference, refinement, anomalies."""

import json

import pytest

from symvalic import corpus as corpus_mod
from symvalic.corpus import (
    EMPTY_FACTS, CorpusStats, DomainFacts, GuardedFact, ReentrancyFact,
    SensitiveArgFact, Thresholds, aggregate, anomalies, facts_from_json,
    facts_json, infer_domain_facts, latest_facts_path, load_corpus,
    read_facts, refine, refine_contracts, summarize,
)
from symvalic.cli import main
from symvalic.parser import parse
from symvalic.valueflow import analyze

from conftest import DUPLICATE_FUNCTION, write_swap_corpus


def summaries_of(src, facts=None):
    result = analyze(parse(src))
    return {s.function: s for s in summarize(result, facts)}, result


# --- summarize ----------------------------------------------------------------


def test_summary_flags_trivial(guarded_contract):
    result = analyze(guarded_contract)
    summary = {s.function: s for s in summarize(result)}["sensitive"]
    assert not summary.allows_reentrancy
    assert summary.external_calls == ()


def test_external_call_guarded_and_taint_flags():
    src = """contract S {
    address owner;

    function constructor() internal {
        owner = msg.sender;
    }

    function open(address tok) public {
        call dex.swap(tok, 5);
    }

    function closed(address tok) public {
        require(msg.sender == owner);
        call dex.swap(tok, 5);
    }
}
"""
    summaries, _ = summaries_of(src)
    open_call = summaries["open"].external_calls[0]
    assert open_call.signature == "swap"
    assert not open_call.guarded
    assert open_call.arg_taint == ("tainted", "untainted")
    closed_call = summaries["closed"].external_calls[0]
    assert closed_call.guarded
    assert closed_call.arg_taint == ("untainted", "untainted")


def test_allows_reentrancy_direct_vs_sender():
    direct = """contract C {
    function go(address target) public {
        call target.ping();
    }
}
"""
    summaries, _ = summaries_of(direct)
    assert summaries["go"].allows_reentrancy

    via_sender = """contract C {
    function go() public {
        call hub.ping(msg.sender);
    }
}
"""
    summaries2, _ = summaries_of(via_sender)
    assert not summaries2["go"].allows_reentrancy  # bound, not a parameter


def test_allows_reentrancy_transitive_with_facts():
    src = """contract C {
    function go(address t) public {
        call hub.notify(t);
    }
}
"""
    no_facts, _ = summaries_of(src)
    assert not no_facts["go"].allows_reentrancy
    facts = DomainFacts(reentrancy=(ReentrancyFact("notify", 1),))
    with_facts, _ = summaries_of(src, facts)
    assert with_facts["go"].allows_reentrancy


# --- aggregate / infer -----------------------------------------------------------


def test_aggregate_counts_per_call_site(swap_corpus):
    loaded, errors = load_corpus(swap_corpus)
    assert not errors
    summaries = []
    for _path, _text, c in loaded:
        summaries.extend(summarize(analyze(c)))
    stats = aggregate(summaries)
    assert stats.arg_taint[("swap", 0)] == [1, 19]
    assert stats.arg_taint[("swap", 1)] == [0, 20]


def test_aggregate_two_call_sites_in_one_contract():
    src = """contract C {
    function a(address t) public {
        call dex.swap(t, 1);
        call dex.swap(t, 2);
    }
}
"""
    summaries, _ = summaries_of(src)
    stats = aggregate(summaries.values())
    assert stats.arg_taint[("swap", 0)] == [2, 0]


def test_aggregate_empty():
    stats = aggregate(())
    assert not stats.arg_taint and not stats.guarded_callers
    assert not stats.reentrancy_votes


def test_aggregate_permutation_invariant(swap_corpus):
    loaded, _ = load_corpus(swap_corpus)
    summaries = []
    for _path, _text, c in loaded:
        summaries.extend(summarize(analyze(c)))
    forward = aggregate(summaries)
    backward = aggregate(list(reversed(summaries)))
    assert forward.arg_taint == backward.arg_taint
    assert forward.guarded_callers == backward.guarded_callers


def test_infer_thresholds():
    stats = CorpusStats(arg_taint={("swap", 0): [1, 19]})
    facts = infer_domain_facts(stats, Thresholds())
    [fact] = [f for f in facts.sensitive_args
              if (f.signature, f.position) == ("swap", 0)]
    assert fact.fraction == 0.95 and fact.samples == 20

    few = CorpusStats(arg_taint={("swap", 0): [0, 5]})
    assert infer_domain_facts(few, Thresholds()).sensitive_args == ()

    boundary = CorpusStats(arg_taint={("swap", 0): [2, 18]})  # exactly 0.9
    assert infer_domain_facts(boundary, Thresholds()).sensitive_args != ()


@pytest.mark.parametrize("fields", [
    (0, 0.9, 0.9), (1, float("nan"), 0.9), (1, 0.9, float("nan")),
    (1, -0.1, 0.9), (1, 0.9, 1.5), (1, float("inf"), 0.9)])
def test_thresholds_out_of_range_rejected(fields):
    with pytest.raises(ValueError):
        Thresholds(*fields)


def test_infer_guarded_facts():
    stats = CorpusStats(guarded_callers={"swap": [19, 1], "ping": [1, 19]})
    facts = infer_domain_facts(stats, Thresholds())
    assert [f.signature for f in facts.usually_guarded] == ["swap"]
    assert facts.usually_guarded[0].fraction == 0.95


# --- refine -----------------------------------------------------------------------


def test_refine_two_level_fixpoint(reentrancy_corpus):
    outcome = refine(reentrancy_corpus, rounds=3)
    assert not outcome.errors
    assert outcome.stable_after == 2
    rounds = [sorted(f.reentrancy_allowing) for f in outcome.facts_rounds]
    assert rounds == [["notify"], ["notify", "relay"], ["notify", "relay"]]


def test_refine_round_budget_respected(reentrancy_corpus):
    outcome = refine(reentrancy_corpus, rounds=1)
    assert outcome.stable_after is None
    assert len(outcome.facts_rounds) == 1
    assert sorted(outcome.facts.reentrancy_allowing) == ["notify"]


def test_refine_no_external_calls_fixpoint_immediately():
    contracts = [parse("contract A { function f(uint x) public {"
                       " y = x + 1; return y; } }")]
    outcome = refine_contracts({c.name: analyze(c) for c in contracts},
                               rounds=3)
    assert outcome.stable_after == 1
    assert outcome.facts == EMPTY_FACTS


def test_refine_monotone_fact_sets(reentrancy_corpus):
    outcome = refine(reentrancy_corpus, rounds=3)
    previous = frozenset()
    for facts in outcome.facts_rounds:
        current = facts.reentrancy_allowing
        assert previous <= current
        previous = current
    prev_args = set()
    for facts in outcome.facts_rounds:
        current = {(f.signature, f.position) for f in facts.sensitive_args}
        assert prev_args <= current
        prev_args = current


def test_refine_skips_broken_contracts(tmp_path):
    (tmp_path / "good.svc").write_text(
        "contract Good { function f() public { return 1; } }")
    (tmp_path / "bad.svc").write_text("contract Bad { function f( }")
    outcome = refine(tmp_path, rounds=1)
    assert tmp_path / "bad.svc" in outcome.errors
    assert "Good" in outcome.results


def test_recursion_diagnostic_is_one_line_whatever_the_message():
    # Python words the error by the frame where the stack ran out
    messages = ("maximum recursion depth exceeded",
                "maximum recursion depth exceeded while calling a Python object")
    lines = {corpus_mod.diagnostic("c.svc", RecursionError(m)) for m in messages}
    assert lines == {"c.svc: maximum recursion depth exceeded"}


def test_refine_reports_what_corpus_infer_prints(capsys, monkeypatch,
                                                 tmp_path):
    def engine(contract, config):
        if contract.name == "Fails":
            raise RuntimeError("engine failure")
        return analyze(contract, config)

    monkeypatch.setattr(corpus_mod, "analyze", engine)
    corpus = write_swap_corpus(tmp_path / "corpus")
    (corpus / "broken.svc").write_text("contract Broken {")
    (corpus / "swapuser00copy.svc").write_text(
        (corpus / "swapuser00.svc").read_text())
    (corpus / "undecodable.svc").write_bytes(b"contract \xff { }")
    (corpus / "dup.svc").write_text(DUPLICATE_FUNCTION)
    (corpus / "fails.svc").write_text(
        "contract Fails { function f() public { return 1; } }")
    code = main(["corpus-infer", str(corpus), "--jobs", "1"])
    captured = capsys.readouterr()
    outcome = refine(corpus)
    assert code == 2
    lines = [outcome.errors[path] for path in sorted(outcome.errors)]
    assert lines == captured.err.splitlines()
    assert [path.name for path in sorted(outcome.errors)] == [
        "broken.svc", "dup.svc", "fails.svc", "swapuser00copy.svc",
        "undecodable.svc"]
    assert outcome.facts.sensitive_args
    assert json.loads(captured.out) == facts_json(
        outcome.facts, len(outcome.facts_rounds), Thresholds())


# --- anomalies ---------------------------------------------------------------------


def test_swap_corpus_single_anomaly(swap_corpus):
    outcome = refine(swap_corpus, rounds=2)
    warnings = []
    for name in sorted(outcome.results):
        warnings.extend(anomalies(outcome.results[name], outcome.facts))
    assert len(warnings) == 1
    w = warnings[0]
    assert w.contract == "SwapTainted" and w.kind == "CORPUS_ANOMALY"
    assert "0.95" in w.explanation and "20" in w.explanation


def test_facts_are_portable(swap_corpus):
    outcome = refine(swap_corpus, rounds=1)
    fresh = analyze(parse("""contract Outsider {
    function jump(address tok) public {
        call dex.swap(tok, 1);
    }
}
"""))
    warnings = anomalies(fresh, outcome.facts)
    assert len(warnings) == 1 and warnings[0].contract == "Outsider"


def test_anomalies_empty_on_conforming_corpus(swap_corpus):
    outcome = refine(swap_corpus, rounds=1)
    benign = outcome.results["SwapUser00"]
    assert anomalies(benign, outcome.facts) == ()


# --- facts persistence ---------------------------------------------------------------


def test_facts_json_roundtrip():
    facts = DomainFacts(
        sensitive_args=(SensitiveArgFact("swap", 0, 1, 19),),
        usually_guarded=(GuardedFact("burn", 18, 2),),
        reentrancy=(ReentrancyFact("notify", 3),),
    )
    doc = facts_json(facts, round_no=2, thresholds=Thresholds())
    assert doc["schema"] == "symvalic-facts/1"
    assert facts_from_json(json.loads(json.dumps(doc))) == facts


@pytest.mark.parametrize("stray", ["1_0", "04", "+4", " 4", "\u0664"], ids=[
    "underscore", "leading-zero", "plus", "space", "arabic-indic-digit"])
def test_latest_facts_ignores_names_no_round_is_written_under(tmp_path,
                                                              stray):
    # int() reads each stray name as round 4 or 10, past round 3
    out = tmp_path / "out"
    out.mkdir()
    for name in ("facts.round-3.json", f"facts.round-{stray}.json"):
        (out / name).write_text("{}")
    assert latest_facts_path(tmp_path) == out / "facts.round-3.json"


def test_latest_facts_does_not_depend_on_directory_order(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "facts.round-02.json").write_text("{}")
    assert latest_facts_path(tmp_path) is None
    (out / "facts.round-2.json").write_text("{}")
    assert latest_facts_path(tmp_path) == out / "facts.round-2.json"


def test_latest_facts_reads_newest_round(reentrancy_corpus):
    refine(reentrancy_corpus, rounds=3)
    facts = read_facts(latest_facts_path(reentrancy_corpus))
    assert sorted(facts.reentrancy_allowing) == ["notify", "relay"]
