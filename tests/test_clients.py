"""Detector queries over analysis results."""

from symvalic.clients import (
    BUILTIN_SPECS, REENTRANCY, SensitiveOpSpec, TAINTED_SENSITIVE_ARG,
    UNGUARDED_SENSITIVE, UNTRUSTED_REACHABILITY, Warning,
    detect_reentrancy, detect_tainted_sensitive_arg,
    detect_unguarded_sensitive, detect_untrusted_reachability,
    run_detectors, warnings_json,
)
from symvalic.corpus import DomainFacts, GuardedFact, ReentrancyFact
from symvalic.parser import parse
from symvalic.valueflow import analyze

from conftest import fixture_contract


def analyzed(src):
    return analyze(parse(src))


GUARDED_FORWARDER = """contract Fwd {
    address owner;

    function constructor() internal {
        owner = msg.sender;
    }

    function pay(address src, address dst, uint amt) public {
        require(msg.sender == owner);
        call token.transferFrom(src, dst, amt);
    }
}
"""

UNGUARDED_FORWARDER = GUARDED_FORWARDER.replace(
    "        require(msg.sender == owner);\n", "")


def test_unguarded_selfdestruct_warns(unguarded_contract):
    r = analyze(unguarded_contract)
    warnings = detect_unguarded_sensitive(r)
    assert len(warnings) == 1
    w = warnings[0]
    assert w.kind == UNGUARDED_SENSITIVE
    assert "<<unprivileged-user>>" in w.witness


def test_guarded_selfdestruct_quiet(guarded_contract):
    assert detect_unguarded_sensitive(analyze(guarded_contract)) == ()


def test_no_sensitive_statements_no_warnings(safe_contract):
    assert detect_unguarded_sensitive(analyze(safe_contract)) == ()


def test_tainted_transfer_from_forwarding():
    r = analyzed(UNGUARDED_FORWARDER)
    warnings = detect_tainted_sensitive_arg(r, BUILTIN_SPECS)
    tainted = [w for w in warnings if w.kind == TAINTED_SENSITIVE_ARG]
    # positions 0 and 1 forward tainted addresses; position 2 is numeric
    assert {w.explanation.split()[1] for w in tainted} == {"0", "1"}
    assert all("<<user-unique-value>>" in w.witness for w in tainted)


def test_guard_suppresses_taint_warnings():
    r = analyzed(GUARDED_FORWARDER)
    assert detect_tainted_sensitive_arg(r, BUILTIN_SPECS) == ()


def test_empty_spec_set():
    r = analyzed(UNGUARDED_FORWARDER)
    assert detect_tainted_sensitive_arg(r, ()) == ()


def test_unknown_callee_spec_skipped():
    r = analyzed(UNGUARDED_FORWARDER)
    spec = SensitiveOpSpec("noSuchApi", frozenset({0}))
    assert detect_tainted_sensitive_arg(r, (spec,)) == ()


REENTRANT_WITHDRAW = """contract V {
    mapping balances;

    function withdraw() public {
        call lib.notify(msg.sender);
        balances[msg.sender] = 0;
    }
}
"""

CHECKS_EFFECTS = """contract V {
    mapping balances;

    function withdraw() public {
        balances[msg.sender] = 0;
        call lib.notify(msg.sender);
    }
}
"""

NOTIFY_FACTS = DomainFacts(reentrancy=(ReentrancyFact("notify", 1),))


def test_reentrancy_store_after_call():
    warnings = detect_reentrancy(analyzed(REENTRANT_WITHDRAW), NOTIFY_FACTS)
    assert len(warnings) == 1
    assert warnings[0].kind == REENTRANCY


def test_checks_effects_interactions_quiet():
    assert detect_reentrancy(analyzed(CHECKS_EFFECTS), NOTIFY_FACTS) == ()


def test_unmarked_signature_quiet():
    other = DomainFacts(reentrancy=(ReentrancyFact("otherApi", 1),))
    assert detect_reentrancy(analyzed(REENTRANT_WITHDRAW), other) == ()


def test_reentrancy_branch_path_counts():
    src = """contract V {
    mapping balances;

    function withdraw(bool fast) public {
        call lib.notify(msg.sender);
        if (fast) { balances[msg.sender] = 0; }
    }
}
"""
    warnings = detect_reentrancy(analyzed(src), NOTIFY_FACTS)
    assert len(warnings) == 1  # store reachable on some path suffices


SWAP_CONVERT = """contract P {
    function convert() public {
        call dex.swap(3, 4);
    }
}
"""

SWAP_GUARDED = """contract P {
    address owner;

    function constructor() internal {
        owner = msg.sender;
    }

    function convert() public {
        require(msg.sender == owner);
        call dex.swap(3, 4);
    }
}
"""

SWAP_FACTS = DomainFacts(usually_guarded=(GuardedFact("swap", 19, 1),))


def test_untrusted_reachability_flags_open_swap():
    warnings = detect_untrusted_reachability(analyzed(SWAP_CONVERT), SWAP_FACTS)
    assert len(warnings) == 1
    w = warnings[0]
    assert w.kind == UNTRUSTED_REACHABILITY
    assert "0.95" in w.explanation and "20" in w.explanation


def test_untrusted_reachability_quiet_when_guarded():
    assert detect_untrusted_reachability(analyzed(SWAP_GUARDED),
                                         SWAP_FACTS) == ()


def test_untrusted_reachability_needs_facts():
    assert detect_untrusted_reachability(analyzed(SWAP_CONVERT),
                                         DomainFacts()) == ()


def test_warnings_all_carry_unprivileged_witness():
    r = analyzed(UNGUARDED_FORWARDER)
    for w in run_detectors(r, NOTIFY_FACTS):
        assert "<<unprivileged-user>>" in w.witness


def test_detectors_pure_and_stably_ordered():
    r = analyzed(UNGUARDED_FORWARDER)
    first = run_detectors(r)
    second = run_detectors(r)
    assert first == second
    assert list(first) == sorted(first, key=Warning.sort_key)


def test_warnings_json_shape():
    r = analyzed(UNGUARDED_FORWARDER)
    doc = warnings_json(run_detectors(r))
    assert doc["schema"] == "symvalic-warnings/1"
    for row in doc["warnings"]:
        assert set(row) == {"kind", "contract", "function", "stmt",
                            "witness", "explanation"}


def test_value_bound_keeps_untrusted_caller():
    # pay's condition temps exceed the 64-value bound; a prefix trim kept
    # only owner-sender values and lost both warnings on the unguarded pay
    r = analyze(fixture_contract("branchy004.svc"))
    found = {(w.function, w.kind) for w in run_detectors(r)}
    assert ("pay", UNGUARDED_SENSITIVE) in found
    assert ("pay", TAINTED_SENSITIVE_ARG) in found
