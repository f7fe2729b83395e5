"""Vulnerability detectors: queries over an AnalysisResult.

Every detector is a pure function of its inputs and emits warnings in a
stable order (contract, function, statement id, kind). The untrusted-caller
hypothesis is the transaction dependency {sender -> <<unprivileged-user>>};
"tainted" means the value is, or contains, <<user-unique-value>>.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Tuple

from .deps import SENDER_KEY, DependencyMap
from .symexpr import Expr, OWNER, UNPRIVILEGED_USER, USER_UNIQUE
from .valueflow import AnalysisResult, CallSite

log = logging.getLogger(__name__)

UNGUARDED_SENSITIVE = "UNGUARDED_SENSITIVE"
TAINTED_SENSITIVE_ARG = "TAINTED_SENSITIVE_ARG"
REENTRANCY = "REENTRANCY"
UNTRUSTED_REACHABILITY = "UNTRUSTED_REACHABILITY"
CORPUS_ANOMALY = "CORPUS_ANOMALY"

INTRINSIC_SIGNATURES = ("TRANSFER", "SELFDESTRUCT", "DELEGATECALL")


@dataclass(frozen=True)
class SensitiveOpSpec:
    """An external signature (or intrinsic) with sensitive argument slots."""

    callee_signature: str
    positions: frozenset


BUILTIN_SPECS = (
    SensitiveOpSpec("TRANSFER", frozenset({0, 1})),
    SensitiveOpSpec("SELFDESTRUCT", frozenset({0})),
    SensitiveOpSpec("DELEGATECALL", frozenset({0})),
    SensitiveOpSpec("transferFrom", frozenset({0, 1, 2})),
)


@dataclass(frozen=True)
class Warning:
    contract: str
    function: str
    kind: str
    stmt: int
    witness: str       # printed value/deps that triggered the warning
    explanation: str

    def sort_key(self):
        """Total order over all fields: warnings that tie on location and
        kind (e.g. both arguments of ``transfer(to, to)``) still print in
        one order, whatever the hash seed."""
        return (self.contract, self.function, self.stmt, self.kind,
                self.witness, self.explanation)


def is_tainted(e: Expr) -> bool:
    """Value controllable by an untrusted caller: contains <<user-unique-value>>."""
    return any(n == USER_UNIQUE for n in e.walk())


def requires_unprivileged(d: DependencyMap) -> bool:
    return d.sender() == UNPRIVILEGED_USER


def requires_owner(d: DependencyMap) -> bool:
    return d.sender() == OWNER


def _unpriv_reach(result: AnalysisResult, stmt: int) -> Tuple:
    return result.stmt_reachable(stmt, tx={SENDER_KEY: UNPRIVILEGED_USER})


def _sorted(warnings: Iterable[Warning]) -> Tuple[Warning, ...]:
    return tuple(sorted(set(warnings), key=Warning.sort_key))


def detect_unguarded_sensitive(result: AnalysisResult) -> Tuple[Warning, ...]:
    """A transfer/selfdestruct/delegatecall reachable by an untrusted caller."""
    out = []
    for call in result.calls:
        if call.kind != "intrinsic":
            continue
        facts = _unpriv_reach(result, call.stmt)
        if facts:
            out.append(Warning(
                contract=result.contract,
                function=call.function,
                kind=UNGUARDED_SENSITIVE,
                stmt=call.stmt,
                witness=facts[0].deps.render(),
                explanation=(f"{call.callee.lower()} in {call.function} is "
                             "reachable by an untrusted caller"),
            ))
    return _sorted(out)


def detect_tainted_sensitive_arg(
        result: AnalysisResult,
        specs: Iterable[SensitiveOpSpec] = BUILTIN_SPECS,
) -> Tuple[Warning, ...]:
    """An untrusted caller supplies a tainted value to a sensitive argument."""
    by_sig: dict[str, list[CallSite]] = {}
    for call in result.calls:
        by_sig.setdefault(call.callee, []).append(call)
    out = []
    for spec in sorted(specs, key=lambda s: s.callee_signature):
        calls = by_sig.get(spec.callee_signature)
        if calls is None:
            if spec.callee_signature not in INTRINSIC_SIGNATURES:
                log.info("skipping sensitive-op spec for unknown callee %s",
                         spec.callee_signature)
            continue
        for call in calls:
            for pos in sorted(spec.positions):
                if pos >= len(call.arg_values):
                    log.info("spec position %d out of range for %s/%d",
                             pos, call.callee, len(call.arg_values))
                    continue
                for value, deps in call.arg_values[pos]:
                    if is_tainted(value) and requires_unprivileged(deps):
                        out.append(Warning(
                            contract=result.contract,
                            function=call.function,
                            kind=TAINTED_SENSITIVE_ARG,
                            stmt=call.stmt,
                            witness=f"{value.render()} {deps.render()}",
                            explanation=(
                                f"argument {pos} of {call.callee} can be "
                                "tainted by an untrusted caller"),
                        ))
                        break
    return _sorted(out)


def detect_reentrancy(result: AnalysisResult, facts) -> Tuple[Warning, ...]:
    """External call to a reentrancy-allowing signature with a storage write
    reachable after it on some path, under an untrusted caller."""
    allowing = frozenset(getattr(facts, "reentrancy_allowing", frozenset()))
    if not allowing:
        return ()
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
            out.append(Warning(
                contract=result.contract,
                function=call.function,
                kind=REENTRANCY,
                stmt=call.stmt,
                witness=unpriv[0].deps.render(),
                explanation=(
                    f"storage write at s{writes[0]} follows a call to "
                    f"reentrancy-allowing {call.callee}"),
            ))
    return _sorted(out)


def detect_untrusted_reachability(result: AnalysisResult, facts
                                  ) -> Tuple[Warning, ...]:
    """Call to a usually-guarded signature reachable without any guard."""
    guarded_map = {f.signature: f for f in getattr(facts, "usually_guarded", ())}
    if not guarded_map:
        return ()
    out = []
    for call in result.calls:
        if call.kind != "external" or call.callee not in guarded_map:
            continue
        fact = guarded_map[call.callee]
        unpriv = _unpriv_reach(result, call.stmt)
        if unpriv:
            out.append(Warning(
                contract=result.contract,
                function=call.function,
                kind=UNTRUSTED_REACHABILITY,
                stmt=call.stmt,
                witness=unpriv[0].deps.render(),
                explanation=(
                    f"{call.callee} is guarded in {fact.fraction:.2f} of "
                    f"{fact.samples} corpus call sites but reachable by an "
                    "untrusted caller here"),
            ))
    return _sorted(out)


def run_detectors(result: AnalysisResult,
                  specs: Iterable[SensitiveOpSpec] = BUILTIN_SPECS,
                  facts=None) -> Tuple[Warning, ...]:
    """The full battery: unguarded + tainted always; reentrancy and
    untrusted-reachability when corpus facts are supplied."""
    warnings = list(detect_unguarded_sensitive(result))
    warnings.extend(detect_tainted_sensitive_arg(result, specs))
    if facts is not None:
        warnings.extend(detect_reentrancy(result, facts))
        warnings.extend(detect_untrusted_reachability(result, facts))
    return _sorted(warnings)


def relabel(warnings: Iterable[Warning], kind: str,
            suffix: Optional[str] = None) -> Tuple[Warning, ...]:
    out = []
    for w in warnings:
        explanation = w.explanation if suffix is None else f"{w.explanation}; {suffix}"
        out.append(replace(w, kind=kind, explanation=explanation))
    return _sorted(out)


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
