"""Corpus analysis: the corpus pipeline, behavioral summaries, statistical
aggregation, inferred domain facts, anomaly detection, and bounded
recursive re-import.

One pipeline serves the corpus commands and the refine API: load_corpus
reads and parses every .svc file, and analyze_corpus analyzes the
contracts: it reads each matching analysis cache itself and runs the
engine, over a process pool, only for the others; for corpus-build, the
process that makes a result writes its report. Both report each file that
fails as one diagnostic line keyed by its path.

Each analyzed contract yields one FunctionSummary per function: its
external calls (signature, whether every path to the call requires the
owner, and whether each argument can be tainted by an untrusted caller)
and whether it allows reentrancy. Summaries are counted per call site
into CorpusStats; frequency thresholds turn the stats into DomainFacts
(which arguments are usually untainted, which signatures are usually
guarded, which allow reentrancy). Facts feed back into summarization --
marking a signature reentrancy-allowing can make its callers' summaries
vote in the next round -- so refine() iterates until the facts stop
changing or the round budget runs out.

Corpus directory layout:

    corpus/<contract>.svc               inputs
    corpus/out/<contract>.result.json   analysis results
    corpus/out/<contract>.analysis.json analysis cache (see analysis_cache)
    corpus/out/facts.round-N.json       facts per round of the last refine
                                        (newest wins)
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from pathlib import Path
from typing import Iterable, Optional, Tuple

from .clients import (
    CORPUS_ANOMALY, SensitiveOpSpec, Warning, caller_tainted,
    detect_tainted_sensitive_arg, detect_untrusted_reachability, relabel,
    requires_owner,
)
from .parser import ParseError, diagnostic, parse
from .symexpr import Expr, FREE_IDENTITY_SYMBOLS
from .valueflow import AnalysisConfig, AnalysisResult, analyze, assemble

FACTS_SCHEMA_ID = "symvalic-facts/1"


# arg_taint: "tainted" or "untainted" for each argument position
ExternalCallSummary = namedtuple("ExternalCallSummary",
                                 "stmt signature guarded arg_taint")
# external_calls: a tuple of ExternalCallSummary
FunctionSummary = namedtuple(
    "FunctionSummary", "contract function allows_reentrancy external_calls")


def _holds_free_identity(e: Expr) -> bool:
    return any(n in FREE_IDENTITY_SYMBOLS for n in e.walk())


def summarize(result: AnalysisResult, facts: Optional["DomainFacts"] = None
              ) -> Tuple[FunctionSummary, ...]:
    """Behavioral summaries for every function of one analyzed contract.

    facts, when given, enables the recursive definitions: a call to a
    known reentrancy-allowing signature with a parameter-controlled
    argument makes the caller vote allows-reentrancy too.
    """
    reentrancy_allowing = (facts.reentrancy_allowing if facts is not None
                           else frozenset())
    externals_by_fn: dict[str, list] = {}
    for c in result.calls:
        if c.kind == "external":
            externals_by_fn.setdefault(c.function, []).append(c)

    out = []
    for fname in result.functions:
        externals = sorted(externals_by_fn.get(fname, ()),
                           key=lambda c: c.stmt)

        ext_summaries = []
        for c in externals:
            reach = result.stmt_reachable(c.stmt)
            guarded = bool(reach) and all(requires_owner(f.deps) for f in reach)
            taint = tuple(
                "tainted" if any(caller_tainted(v, d) for v, d in pos)
                else "untainted"
                for pos in c.arg_values
            )
            ext_summaries.append(ExternalCallSummary(
                c.stmt, c.callee, guarded, taint))

        allows = False
        for c in externals:
            if any(_holds_free_identity(v) for v, _ in c.target_values):
                allows = True
                break
            if c.callee in reentrancy_allowing and any(
                    _holds_free_identity(v) for pos in c.arg_values
                    for v, _ in pos):
                allows = True
                break

        out.append(FunctionSummary(
            contract=result.contract,
            function=fname,
            allows_reentrancy=allows,
            external_calls=tuple(ext_summaries),
        ))
    return tuple(out)


# ---------------------------------------------------------------------------
# Aggregation and fact inference
# ---------------------------------------------------------------------------


class CorpusStats:
    """Per-call-site counts across the corpus."""

    def __init__(self, arg_taint=None, guarded_callers=None,
                 reentrancy_votes=None):
        self.arg_taint = arg_taint or {}                # (sig, pos) -> [t, u]
        self.guarded_callers = guarded_callers or {}    # sig -> [g, u]
        self.reentrancy_votes = reentrancy_votes or {}  # sig -> votes


def aggregate(summaries: Iterable[FunctionSummary]) -> CorpusStats:
    """Pure counting; invariant under permutation of the summary list."""
    stats = CorpusStats()
    for s in sorted(summaries, key=lambda s: (s.contract, s.function)):
        if s.allows_reentrancy:
            stats.reentrancy_votes[s.function] = (
                stats.reentrancy_votes.get(s.function, 0) + 1)
        for call in s.external_calls:
            g = stats.guarded_callers.setdefault(call.signature, [0, 0])
            g[0 if call.guarded else 1] += 1
            for pos, taint in enumerate(call.arg_taint):
                t = stats.arg_taint.setdefault((call.signature, pos), [0, 0])
                t[0 if taint == "tainted" else 1] += 1
    return stats


class Thresholds(namedtuple(
        "Thresholds", "min_samples untainted_fraction guarded_fraction",
        defaults=(10, 0.9, 0.9))):
    """Raises ValueError unless min_samples >= 1 and both fractions are in
    [0, 1]; _replace would skip that check."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        for value in (self.untainted_fraction, self.guarded_fraction):
            if not 0 <= value <= 1:  # also false for NaN
                raise ValueError("threshold fractions must be in [0, 1]")
        return self


class SensitiveArgFact(namedtuple(
        "SensitiveArgFact", "signature position tainted untainted")):
    __slots__ = ()

    @property
    def samples(self) -> int:
        return self.tainted + self.untainted

    @property
    def fraction(self) -> float:
        return self.untainted / self.samples if self.samples else 0.0


class GuardedFact(namedtuple("GuardedFact",
                             "signature guarded unguarded")):
    __slots__ = ()

    @property
    def samples(self) -> int:
        return self.guarded + self.unguarded

    @property
    def fraction(self) -> float:
        return self.guarded / self.samples if self.samples else 0.0


ReentrancyFact = namedtuple("ReentrancyFact", "signature votes")


class DomainFacts(namedtuple(
        "DomainFacts", "sensitive_args usually_guarded reentrancy",
        defaults=((), (), ()))):
    """Tuples of SensitiveArgFact, GuardedFact and ReentrancyFact."""

    __slots__ = ()

    @property
    def reentrancy_allowing(self) -> frozenset:
        return frozenset(f.signature for f in self.reentrancy)


EMPTY_FACTS = DomainFacts()


def infer_domain_facts(stats: CorpusStats,
                       thresholds: Thresholds = Thresholds()) -> DomainFacts:
    """Frequency thresholds over the stats; both bounds are inclusive (>=)."""
    sensitive = []
    for (sig, pos), (tainted, untainted) in sorted(stats.arg_taint.items()):
        samples = tainted + untainted
        if samples >= thresholds.min_samples and \
                untainted / samples >= thresholds.untainted_fraction:
            sensitive.append(SensitiveArgFact(sig, pos, tainted, untainted))
    guarded = []
    for sig, (g, u) in sorted(stats.guarded_callers.items()):
        samples = g + u
        if samples >= thresholds.min_samples and \
                g / samples >= thresholds.guarded_fraction:
            guarded.append(GuardedFact(sig, g, u))
    reentrancy = [ReentrancyFact(sig, votes)
                  for sig, votes in sorted(stats.reentrancy_votes.items())
                  if votes >= 1]
    return DomainFacts(tuple(sensitive), tuple(guarded), tuple(reentrancy))


def anomalies(result: AnalysisResult, facts: DomainFacts) -> Tuple[Warning, ...]:
    """Corpus-informed warnings for one contract, labeled CORPUS_ANOMALY.

    Facts are portable: the contract need not be part of the corpus the
    facts were inferred from.
    """
    out: list[Warning] = []
    for fact in facts.sensitive_args:
        spec = SensitiveOpSpec(fact.signature, frozenset({fact.position}))
        found = detect_tainted_sensitive_arg(result, (spec,))
        out.extend(relabel(
            found, CORPUS_ANOMALY,
            suffix=(f"corpus: untainted fraction {fact.fraction:.2f} "
                    f"over {fact.samples} call sites")))
    out.extend(relabel(detect_untrusted_reachability(result, facts),
                       CORPUS_ANOMALY))
    return tuple(sorted(set(out), key=Warning.sort_key))


# ---------------------------------------------------------------------------
# Recursive refinement
# ---------------------------------------------------------------------------


class RefineOutcome:
    def __init__(self, facts_rounds: Tuple[DomainFacts, ...],
                 stable_after: Optional[int], results: dict):
        self.facts_rounds = facts_rounds
        self.stable_after = stable_after  # facts unchanged since, 1-based
        self.results = results
        self.errors: dict = {}  # diagnostic lines by path

    @property
    def facts(self) -> DomainFacts:
        return self.facts_rounds[-1] if self.facts_rounds else EMPTY_FACTS


def refine_contracts(results: dict, rounds: int = 3,
                     thresholds: Thresholds = Thresholds()) -> RefineOutcome:
    """Iterate summarize / aggregate / infer over the analysis results (by
    contract name) until the fact sets stop changing or the round budget is
    exhausted.

    Analysis results do not depend on the facts, so only the fact-sensitive
    summaries are recomputed per round.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    facts = EMPTY_FACTS
    facts_rounds: list[DomainFacts] = []
    stable_after = None
    for round_no in range(1, rounds + 1):
        summaries: list[FunctionSummary] = []
        for name in sorted(results):
            summaries.extend(summarize(results[name], facts))
        new_facts = infer_domain_facts(aggregate(summaries), thresholds)
        facts_rounds.append(new_facts)
        if new_facts == facts:
            # facts were already final after the previous change (round 1
            # at the earliest); this round merely confirmed them
            stable_after = max(1, round_no - 1)
            break
        facts = new_facts
    return RefineOutcome(tuple(facts_rounds), stable_after, results)


# ---------------------------------------------------------------------------
# Corpus directory I/O
# ---------------------------------------------------------------------------


def corpus_out_dir(corpus_dir: Path) -> Path:
    return Path(corpus_dir) / "out"


def load_corpus(corpus_dir) -> Tuple[list, dict]:
    """Read and parse every .svc file in the directory, in path order:
    ([(path, text, contract)], {path: diagnostic line}) for the files that
    cannot be read or parsed or repeat a contract name. OSError if the
    directory cannot be listed, such as one that does not exist."""
    loaded = []
    errors: dict[Path, str] = {}
    seen: set[str] = set()
    for path in sorted(p for p in Path(corpus_dir).iterdir()
                       if p.name.endswith(".svc")):
        try:
            text = path.read_text(encoding="utf-8")
            contract = parse(text)
        except (OSError, ValueError, ParseError) as err:
            errors[path] = diagnostic(path, err)
            continue
        if contract.name in seen:
            errors[path] = f"{path}: duplicate contract name {contract.name}"
            continue
        seen.add(contract.name)
        loaded.append((path, text, contract))
    return loaded, errors


def report_path(out_dir: Path, contract_name: str) -> Path:
    return out_dir / f"{contract_name}.result.json"


def _analyze_one(payload):
    """One contract of analyze_corpus: (path, result, None), or (path,
    None, diagnostic line) if the analysis failed, so that one contract's
    failure never takes the pool down. Given facts (its cache matched,
    read by the caller), it assembles them; otherwise it runs the engine,
    and with a report path (corpus-build) caches the fresh result. With a
    report path it then writes the result's report there, in whichever
    process runs it: the caller for a cache hit, a pool worker for a miss
    at jobs > 1. A report it cannot write gives (report path, result,
    diagnostic line)."""
    from . import analysis_cache

    path, text, config, facts, cache_file, key, report = payload
    try:
        contract = parse(text)
        if facts is not None:
            result = assemble(contract, config, facts)
        else:
            result = analyze(contract, config)
            if report is not None:
                analysis_cache.write(cache_file, key, result)
    except Exception as err:
        return path, None, diagnostic(path, err)
    if report is not None:
        try:
            report.write_text(result.to_json_text() + "\n", encoding="utf-8")
        except OSError as err:
            return report, result, diagnostic(report, err)
    return path, result, None


def analyze_corpus(corpus_dir, config: AnalysisConfig, jobs: int = 1,
                   write_outputs: bool = False) -> Tuple[dict, dict]:
    """(results by contract name, diagnostic lines by file path) for every
    .svc file in the directory. A contract's cache in the out directory
    stands in for its analysis when the key matches, read in this process;
    only the contracts whose cache does not match run the engine, over up
    to jobs worker processes. With write_outputs (corpus-build), each
    fresh result is cached there, and every result's report
    (report_path) is written by the process that made the result; a
    report that cannot be written is a diagnostic keyed by its path, and
    its contract stays among the results. OSError, with nothing written,
    if the directory cannot be listed."""
    # imported here: scan and analyze never use the cache
    from . import analysis_cache

    loaded, errors = load_corpus(corpus_dir)
    out = corpus_out_dir(corpus_dir)
    if write_outputs:
        out.mkdir(parents=True, exist_ok=True)
    rows, misses = [], []
    for path, text, contract in loaded:
        cache_file = analysis_cache.cache_path(out, contract.name)
        key = analysis_cache.cache_key(text, config)
        facts = analysis_cache.load(cache_file, key)
        payload = (path, text, config, facts, cache_file, key,
                   report_path(out, contract.name) if write_outputs else None)
        if facts is None:
            misses.append(payload)
        else:
            rows.append(_analyze_one(payload))
    del loaded  # the analysis parses the text again; free the contracts
    if jobs > 1 and len(misses) > 1:
        # imported here: the pool machinery costs every process start-up
        from concurrent.futures import ProcessPoolExecutor
        # a fork pool starts all max_workers processes at the first submit
        workers = min(jobs, len(misses))
        # multiprocessing.Pool.map's default chunk size
        chunksize = -(-len(misses) // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows += pool.map(_analyze_one, misses, chunksize=chunksize)
    else:
        rows += map(_analyze_one, misses)
    results = {}
    for path, result, error in rows:
        if result is not None:
            results[result.contract] = result
        if error is not None:
            errors[path] = error
    return dict(sorted(results.items())), dict(sorted(errors.items()))


def remove_stale_outputs(corpus_dir, contracts) -> None:
    """Remove the result and analysis-cache files of every contract name
    not in contracts, so the out directory holds only this build's."""
    for suffix in (".result.json", ".analysis.json"):
        for path in corpus_out_dir(corpus_dir).glob(f"*{suffix}"):
            if path.name[: -len(suffix)] not in contracts:
                path.unlink()


def facts_json(facts: DomainFacts, round_no: int,
               thresholds: Thresholds) -> dict:
    return {
        "schema": FACTS_SCHEMA_ID,
        "round": round_no,
        "thresholds": {
            "minSamples": thresholds.min_samples,
            "untaintedFraction": thresholds.untainted_fraction,
            "guardedFraction": thresholds.guarded_fraction,
        },
        "sensitiveArgs": [
            {"signature": f.signature, "position": f.position,
             "taintedCount": f.tainted, "untaintedCount": f.untainted,
             "fraction": f.fraction, "samples": f.samples}
            for f in facts.sensitive_args
        ],
        "usuallyGuarded": [
            {"signature": f.signature, "guardedCallers": f.guarded,
             "unguardedCallers": f.unguarded, "fraction": f.fraction,
             "samples": f.samples}
            for f in facts.usually_guarded
        ],
        "reentrancyAllowing": [
            {"signature": f.signature, "votes": f.votes}
            for f in facts.reentrancy
        ],
    }


def facts_from_json(doc) -> DomainFacts:
    """The facts of a symvalic-facts/1 document; ValueError on any other
    shape."""
    if not isinstance(doc, dict):
        raise ValueError("not a facts document: expected a JSON object")
    if doc.get("schema") != FACTS_SCHEMA_ID:
        raise ValueError(f"unexpected facts schema: {doc.get('schema')!r}")
    return DomainFacts(
        sensitive_args=tuple(
            SensitiveArgFact(*r) for r in _fact_rows(
                doc, "sensitiveArgs", "signature", "position",
                "taintedCount", "untaintedCount")),
        usually_guarded=tuple(
            GuardedFact(*r) for r in _fact_rows(
                doc, "usuallyGuarded", "signature", "guardedCallers",
                "unguardedCallers")),
        reentrancy=tuple(
            ReentrancyFact(*r) for r in _fact_rows(
                doc, "reentrancyAllowing", "signature", "votes")),
    )


def _fact_rows(doc: dict, key: str, *fields: str) -> list:
    """The rows under key as lists of the fields' values: the signature a
    string, every other field a count (an int >= 0)."""
    rows = doc.get(key, [])
    if not isinstance(rows, list):
        raise ValueError(f"{key}: expected a list")
    out = []
    for row in rows:
        if not isinstance(row, dict):
            raise ValueError(f"{key}: expected an object, got {row!r}")
        values = [row.get(name) for name in fields]
        if type(values[0]) is not str or not all(
                type(v) is int and v >= 0 for v in values[1:]):
            raise ValueError(f"{key}: malformed row {row!r}")
        out.append(values)
    return out


def write_facts_rounds(corpus_dir, outcome: RefineOutcome,
                       thresholds: Thresholds) -> list:
    """Write one facts file per round of the outcome, first removing every
    facts round an earlier run left, so the newest round on disk is this
    outcome's."""
    out = corpus_out_dir(corpus_dir)
    out.mkdir(parents=True, exist_ok=True)
    for stale in out.glob("facts.round-*.json"):
        stale.unlink()
    paths = []
    for i, facts in enumerate(outcome.facts_rounds, start=1):
        path = out / f"facts.round-{i}.json"
        path.write_text(json.dumps(facts_json(facts, i, thresholds),
                                   indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        paths.append(path)
    return paths


def read_facts(path) -> DomainFacts:
    """The facts in a facts JSON file; OSError or ValueError otherwise."""
    return facts_from_json(json.loads(Path(path).read_text(encoding="utf-8")))


# the names write_facts_rounds gives: one per round number, in ASCII
# decimal without a leading zero
_ROUND_NAME = re.compile(r"facts\.round-([1-9][0-9]*)\.json")


def latest_facts_path(corpus_dir) -> Optional[Path]:
    """The newest facts round in the corpus out directory, if any. Only
    names that write_facts_rounds writes count, so no two files claim one
    round and the pick never depends on the directory's order."""
    out = corpus_out_dir(corpus_dir)
    best_path = None
    best_round = 0
    for path in out.glob("facts.round-*.json"):
        m = _ROUND_NAME.fullmatch(path.name)
        if m and int(m[1]) > best_round:
            best_round = int(m[1])
            best_path = path
    return best_path


def refine(corpus_dir, rounds: int = 3,
           config: Optional[AnalysisConfig] = None,
           thresholds: Thresholds = Thresholds(),
           results: Optional[dict] = None) -> RefineOutcome:
    """Directory-level refinement: analyze the corpus (unless its results
    are given), iterate, persist facts per round. The outcome's errors are
    the corpus's diagnostic lines by file path; with given results, only
    those of the files that cannot be loaded. OSError, with nothing
    written, if the directory cannot be listed."""
    if results is None:
        results, errors = analyze_corpus(corpus_dir, config or AnalysisConfig())
    else:
        errors = load_corpus(corpus_dir)[1]
    outcome = refine_contracts(results, rounds, thresholds)
    outcome.errors.update(errors)
    write_facts_rounds(corpus_dir, outcome, thresholds)
    return outcome
