"""Vulnerability detectors: queries over an AnalysisResult.

Every detector is a pure function of its inputs and emits warnings in a
stable order (contract, function, statement id, kind). The untrusted-caller
hypothesis is the transaction dependency {sender -> <<unprivileged-user>>};
"tainted" means the value is, or contains, <<user-unique-value>>.

    run_detectors(result, facts=None)

runs the unguarded and tainted-argument detectors, and with corpus
DomainFacts also the reentrancy and untrusted-reachability detectors.
"""

from __future__ import annotations

from collections import namedtuple
from typing import TYPE_CHECKING, Iterable, Optional, Tuple

from .deps import SENDER_KEY, DependencyMap
from .symexpr import Expr, OWNER, UNPRIVILEGED_USER, USER_UNIQUE
from .valueflow import AnalysisResult, CallSite

if TYPE_CHECKING:  # corpus imports this module
    from .corpus import DomainFacts

UNGUARDED_SENSITIVE = "UNGUARDED_SENSITIVE"
TAINTED_SENSITIVE_ARG = "TAINTED_SENSITIVE_ARG"
REENTRANCY = "REENTRANCY"
UNTRUSTED_REACHABILITY = "UNTRUSTED_REACHABILITY"
CORPUS_ANOMALY = "CORPUS_ANOMALY"


# An external signature (or intrinsic) with sensitive argument slots: the
# callee's signature, and the frozenset of its sensitive positions.
SensitiveOpSpec = namedtuple("SensitiveOpSpec", "callee_signature positions")


BUILTIN_SPECS = (
    SensitiveOpSpec("TRANSFER", frozenset({0, 1})),
    SensitiveOpSpec("SELFDESTRUCT", frozenset({0})),
    SensitiveOpSpec("DELEGATECALL", frozenset({0})),
    SensitiveOpSpec("transferFrom", frozenset({0, 1, 2})),
)


class Warning(namedtuple("Warning", "contract function kind stmt witness "
                                   "explanation")):
    """One detector finding; witness is the printed value and dependencies
    that triggered it."""

    __slots__ = ()

    def sort_key(self):
        """Total order over all fields: warnings that tie on location and
        kind (e.g. both arguments of ``transfer(to, to)``) still print in
        one order, whatever the hash seed."""
        return (self.contract, self.function, self.stmt, self.kind,
                self.witness, self.explanation)


def requires_owner(d: DependencyMap) -> bool:
    return d.sender() == OWNER


def caller_tainted(value: Expr, deps: DependencyMap) -> bool:
    """An untrusted caller controls the value: its dependencies require the
    sender <<unprivileged-user>>, and it is tainted."""
    return (deps.sender() == UNPRIVILEGED_USER
            and any(n == USER_UNIQUE for n in value.walk()))


def _unpriv_reach(result: AnalysisResult, stmt: int) -> Tuple:
    return result.stmt_reachable(stmt, tx={SENDER_KEY: UNPRIVILEGED_USER})


def _sorted(warnings: Iterable[Warning]) -> Tuple[Warning, ...]:
    return tuple(sorted(set(warnings), key=Warning.sort_key))


def _warning(result: AnalysisResult, call: CallSite, kind: str,
             witness: str, explanation: str) -> Warning:
    """The warning of kind at one call site of the analyzed contract."""
    return Warning(result.contract, call.function, kind, call.stmt, witness,
                   explanation)


def detect_unguarded_sensitive(result: AnalysisResult) -> Tuple[Warning, ...]:
    """A transfer/selfdestruct/delegatecall reachable by an untrusted caller."""
    out = []
    for call in result.calls:
        if call.kind != "intrinsic":
            continue
        facts = _unpriv_reach(result, call.stmt)
        if facts:
            out.append(_warning(
                result, call, UNGUARDED_SENSITIVE, facts[0].deps.render(),
                f"{call.callee.lower()} in {call.function} is reachable by "
                "an untrusted caller"))
    return _sorted(out)


def detect_tainted_sensitive_arg(
        result: AnalysisResult,
        specs: Iterable[SensitiveOpSpec] = BUILTIN_SPECS,
) -> Tuple[Warning, ...]:
    """An untrusted caller supplies a tainted value to a sensitive argument
    (a position of a spec for the callee; positions past the call's
    arguments are ignored)."""
    positions: dict[str, frozenset] = {}
    for spec in specs:
        positions[spec.callee_signature] = (
            positions.get(spec.callee_signature, frozenset()) | spec.positions)
    out = []
    for call in result.calls:
        for pos in positions.get(call.callee, ()):
            if pos >= len(call.arg_values):
                continue
            for value, deps in call.arg_values[pos]:
                if caller_tainted(value, deps):
                    out.append(_warning(
                        result, call, TAINTED_SENSITIVE_ARG,
                        f"{value.render()} {deps.render()}",
                        f"argument {pos} of {call.callee} can be tainted "
                        "by an untrusted caller"))
                    break
    return _sorted(out)


def detect_reentrancy(result: AnalysisResult, facts: DomainFacts
                      ) -> Tuple[Warning, ...]:
    """External call to a reentrancy-allowing signature with a storage write
    reachable after it on some path, under an untrusted caller."""
    allowing = facts.reentrancy_allowing
    out = []
    for call in result.calls:
        if call.kind != "external" or call.callee not in allowing:
            continue
        unpriv = _unpriv_reach(result, call.stmt)
        if not unpriv:
            continue
        after = result.flow_after.get(call.stmt, frozenset())
        writes = sorted(stmt for fn, stmt in result.stores
                        if fn == call.function and stmt in after)
        if writes:
            out.append(_warning(
                result, call, REENTRANCY, unpriv[0].deps.render(),
                f"storage write at s{writes[0]} follows a call to "
                f"reentrancy-allowing {call.callee}"))
    return _sorted(out)


def detect_untrusted_reachability(result: AnalysisResult, facts: DomainFacts
                                  ) -> Tuple[Warning, ...]:
    """Call to a usually-guarded signature reachable without any guard."""
    guarded_map = {f.signature: f for f in facts.usually_guarded}
    out = []
    for call in result.calls:
        if call.kind != "external" or call.callee not in guarded_map:
            continue
        fact = guarded_map[call.callee]
        unpriv = _unpriv_reach(result, call.stmt)
        if unpriv:
            out.append(_warning(
                result, call, UNTRUSTED_REACHABILITY, unpriv[0].deps.render(),
                f"{call.callee} is guarded in {fact.fraction:.2f} of "
                f"{fact.samples} corpus call sites but reachable by an "
                "untrusted caller here"))
    return _sorted(out)


def run_detectors(result: AnalysisResult,
                  facts: Optional[DomainFacts] = None) -> Tuple[Warning, ...]:
    """The full battery: unguarded + tainted (over BUILTIN_SPECS) always;
    reentrancy and untrusted-reachability when corpus facts are supplied."""
    warnings = list(detect_unguarded_sensitive(result))
    warnings.extend(detect_tainted_sensitive_arg(result))
    if facts is not None:
        warnings.extend(detect_reentrancy(result, facts))
        warnings.extend(detect_untrusted_reachability(result, facts))
    return _sorted(warnings)


def relabel(warnings: Iterable[Warning], kind: str,
            suffix: Optional[str] = None) -> Tuple[Warning, ...]:
    """The warnings with kind replaced and suffix appended to each
    explanation, in the given order."""
    return tuple(
        w._replace(kind=kind, explanation=(
            w.explanation if suffix is None else f"{w.explanation}; {suffix}"))
        for w in warnings)


# ---------------------------------------------------------------------------
# JSON serialization (schema symvalic-warnings/1)
# ---------------------------------------------------------------------------

WARNINGS_SCHEMA_ID = "symvalic-warnings/1"


def warnings_json(warnings: Iterable[Warning]) -> dict:
    rows = [
        {
            "kind": w.kind,
            "contract": w.contract,
            "function": w.function,
            "stmt": w.stmt,
            "witness": w.witness,
            "explanation": w.explanation,
        }
        for w in sorted(set(warnings), key=Warning.sort_key)
    ]
    return {"schema": WARNINGS_SCHEMA_ID, "warnings": rows}
