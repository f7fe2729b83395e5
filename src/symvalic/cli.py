"""Command-line front end.

Commands:
    analyze FILE            emit the analysis result JSON
    scan FILE [--facts F]   emit vulnerability warnings
    corpus-build DIR        analyze every .svc file, write out/*.result.json
                            and the analysis cache out/*.analysis.json, and
                            remove those of contracts no longer built
    corpus-infer DIR        run fact refinement, write out/facts.round-N.json
    corpus-scan DIR         emit corpus-anomaly warnings for every contract

The corpus commands load and analyze the corpus through
corpus.analyze_corpus, which takes a contract's analysis from its cache
file when the file's key (source text, engine settings, package source)
matches, and otherwise runs the engine; see analysis_cache. For
corpus-build it also writes each out/<Contract>.result.json, in the
process that made the result: a pool worker when the engine runs on
more than one contract at --jobs above 1, this process otherwise. This
module handles arguments, the reports on stdout and exit codes.

Exit status: 0 no warnings, 1 warnings emitted, 2 usage, parse or
analysis error (values nested deeper than symexpr.MAX_EXPR_DEPTH among
them), an unlistable corpus, an unwritable output or a stdout that
refuses the report (a closed pipe, a full device), 3 analysis resource
cap hit on any input. Count flags take integers >= 1 and fraction
flags numbers in [0, 1]; SYMVALIC_SEED must be an integer. Reports go to
stdout, diagnostics to stderr, one line per failed input or output
(`path:line:col: message` for a parse error, `path: message` otherwise).
A corpus command reports a failed contract and goes on with the others.
Identical invocations produce byte-identical JSON. A closed stdout (no
descriptor 1) is a refused one; with stderr closed, diagnostics are
dropped and never reach stdout. Text is UTF-8 whatever the locale:
sources, facts files and caches are read and written as UTF-8, and a
report reaches stdout as UTF-8 bytes (JSON reports are ASCII).

Start-up is part of every scan, one process per contract. The package
imports no more than a scan needs: hashing uses the builtin SHA-256
(see valueflow), so OpenSSL never loads; records are collections.namedtuple
classes; no module imports typing; the process pool is imported by the
corpus commands that use it. build_parser adds the flags of only the
command being run; tests/test_startup.py checks what a scan loads.

`run` is the process entry point (`python -m symvalic.cli` and the
`symvalic` script): it flushes stdout and stderr after `main` returns and
then ends the process at once, without the interpreter's teardown
(module cleanup, a final collection, exit hooks), which only frees memory
that the kernel takes back anyway. That is safe while these hold when
`main` returns:
  - every file written is closed: outputs go through Path.write_text,
    analysis_cache.write among them, and no file object is kept open;
  - no pool worker is left: corpus.analyze_corpus runs its pool in a
    `with ProcessPoolExecutor` block, whose exit joins the workers;
  - the package registers no exit hook (atexit), defines no finalizer
    method (__del__) and makes no weakref finalizer, since none of them
    would run; tests/test_cli.py checks the sources for all three.
An exception that escapes `main` (argparse's usage errors and --help
among them) takes the interpreter's normal exit. In-process callers use
`main`, which returns the exit status.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from pathlib import Path

# corpus is imported here, though only the corpus commands and --facts
# use it: bench/tracer.py wraps the functions of the modules that
# `import symvalic.cli` loads, corpus's among them
from . import corpus as corpus_mod
from .clients import run_detectors, warnings_json
from .corpus import Thresholds, anomalies, facts_json
from .deps import DependencyBudget
from .parser import ParseError, diagnostic, parse
from .valueflow import AnalysisConfig, analyze

EXIT_OK = 0
EXIT_WARNINGS = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def positive_int(text: str) -> int:
    """A count flag's value: an int >= 1, else a usage error (exit 2)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not >= 1")
    return value


def fraction(text: str) -> float:
    """A threshold flag's value: a number in [0, 1], else a usage error."""
    value = float(text)
    if not 0 <= value <= 1:  # also false for NaN
        raise argparse.ArgumentTypeError(f"{text} is not in [0, 1]")
    return value


def _arg(*names, **keywords) -> tuple:
    """One argument of a command, as add_argument takes it."""
    return names, keywords


_FILE = _arg("file", type=Path)
_DIR = _arg("dir", type=Path)
_FACTS = _arg("--facts", type=Path, default=None,
              help="corpus facts JSON enabling the corpus-informed detectors")
_ROUNDS = _arg("--rounds", type=positive_int, default=3)
_JOBS = _arg("--jobs", type=positive_int, default=os.cpu_count() or 1)
_ENGINE = (
    _arg("--dep-args", type=positive_int, default=3, metavar="N",
         help="tracked function arguments (default 3)"),
    _arg("--dep-storage-loads", type=positive_int, default=1, metavar="N",
         help="tracked storage-load variables (default 1)"),
    _arg("--dep-tx-args", type=positive_int, default=2, metavar="N",
         help="tracked transaction entry arguments (default 2)"),
    _arg("--arith-depth", type=positive_int, default=5, metavar="N",
         help="arithmetic depth limit through storage (default 5)"),
    _arg("--tx-rounds", type=positive_int, default=3, metavar="N",
         help="transaction rounds (default 3)"),
    _arg("--seed", type=int, default=None,
         help="seed for input drawing (env SYMVALIC_SEED, then 1)"),
    _arg("--format", choices=("json", "text"), default="json"),
)
_THRESHOLDS = (
    _arg("--min-samples", type=positive_int, default=10),
    _arg("--untainted-frac", type=fraction, default=0.9),
    _arg("--guarded-frac", type=fraction, default=0.9),
)

# each command: its help line and its arguments, in the order --help
# lists them
COMMANDS = {
    "analyze": ("analyze one contract", (_FILE, *_ENGINE)),
    "scan": ("scan one contract for vulnerabilities",
             (_FILE, _FACTS, *_ENGINE)),
    "corpus-build": ("analyze all .svc files in a corpus",
                     (_DIR, _JOBS, *_ENGINE)),
    "corpus-infer": ("infer domain facts from a corpus",
                     (_DIR, _ROUNDS, _JOBS, *_ENGINE, *_THRESHOLDS)),
    "corpus-scan": ("emit corpus anomalies",
                    (_DIR, _ROUNDS, _JOBS, *_ENGINE, *_THRESHOLDS)),
}


def build_parser(argv: list | None = None) -> argparse.ArgumentParser:
    """The parser of every command. Given the arguments it will parse, it
    adds the flags of only the commands named among them: argparse runs
    just the command named first, so its help, usage errors and results
    are the same as with every command's flags, which cost start-up."""
    parser = argparse.ArgumentParser(
        prog="symvalic",
        description="Symbolic value-flow analyzer and corpus scanner")
    sub = parser.add_subparsers(dest="command", required=True)
    chosen = COMMANDS if argv is None else set(argv)
    for name, (help_line, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if name in chosen:
            for names, keywords in arguments:
                p.add_argument(*names, **keywords)
    return parser


def config_from_args(args) -> AnalysisConfig:
    return AnalysisConfig(
        budget=DependencyBudget(args.dep_args, args.dep_storage_loads,
                                args.dep_tx_args),
        arithmetic_depth_limit=args.arith_depth,
        transaction_rounds=args.tx_rounds,
        seed=args.seed,
    )


def thresholds_from_args(args) -> Thresholds:
    return Thresholds(args.min_samples, args.untainted_frac, args.guarded_frac)


def _render(doc: dict, fmt: str, text_lines) -> str:
    """A report: the JSON document, or its lines with --format text."""
    if fmt == "json":
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return "".join(line + "\n" for line in text_lines(doc))


def _diagnose(line: str):
    """Write one diagnostic line to stderr. Drop it when the process has
    no stderr, where print would send it to stdout, into the report, or
    when stderr refuses it: the exit status still tells of the failure."""
    if sys.stderr is not None:
        try:
            print(line, file=sys.stderr)
        except OSError:
            pass


def _emit(report: str) -> bool:
    """Write a report to stdout as UTF-8, whatever the locale, and flush
    it. False, after one diagnostic line, if stdout refuses it (a closed
    pipe, a full device, no stdout at all); stdout's descriptor then
    points at os.devnull, so that a later flush of what is left in the
    buffer cannot fail again. A text stream without a byte buffer in
    place of stdout (io.StringIO) takes the report as text."""
    try:
        if sys.stdout is None:  # descriptor 1 was closed at start-up
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        out = getattr(sys.stdout, "buffer", None)
        if out is None:
            sys.stdout.write(report)
        else:
            sys.stdout.flush()  # text written before goes first
            out.write(report.encode("utf-8"))
        sys.stdout.flush()
    except OSError as err:  # BrokenPipeError among them
        if sys.stdout is not None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        _diagnose(diagnostic("<stdout>", err))
        return False
    return True


def _warning_lines(doc: dict):
    rows = doc["warnings"]
    if not rows:
        yield "no warnings"
        return
    for w in rows:
        yield (f"{w['kind']} {w['contract']}.{w['function']} s{w['stmt']}: "
               f"{w['explanation']} [{w['witness']}]")


def _deps_text(row: dict) -> str:
    """A result row's dependency map as DependencyMap.render() prints it."""
    local, tx = (", ".join(f"{var} -> {value}" for var, value in row[side].items())
                 for side in ("local", "tx"))
    return f"<{{{local}}} ; {{{tx}}}>"


def _result_lines(doc: dict):
    yield f"contract {doc['contract']} (truncated: {doc['truncated']})"
    yield "config " + " ".join(f"{k}={v}" for k, v in sorted(doc["config"].items()))
    for i in doc["inferences"]:
        yield f"  {i['function']}.{i['var']} -> {i['value']} {_deps_text(i)}"
    for r in doc["reachability"]:
        yield f"  reach s{r['stmt']} ({r['function']}) {_deps_text(r)}"
    for c in doc["externalCalls"]:
        yield f"  call s{c['stmt']} {c['function']} -> {c['callee']} ({c['kind']})"
    for fname, rows in sorted(doc["returns"].items()):
        for row in rows:
            yield f"  return {fname} -> {row['value']} {_deps_text(row)}"
    for cell in doc["storage"]:
        yield (f"  storage {cell['address']} -> {cell['value']} "
               f"(depth {cell['depth']})")
    for note in doc.get("notes", ()):
        yield f"  note: {note}"


def _facts_lines(doc: dict):
    yield f"facts (round {doc['round']})"
    for f in doc["sensitiveArgs"]:
        yield (f"  sensitive {f['signature']}[{f['position']}]: "
               f"untainted {f['fraction']:.2f} of {f['samples']}")
    for f in doc["usuallyGuarded"]:
        yield (f"  guarded {f['signature']}: {f['fraction']:.2f} "
               f"of {f['samples']}")
    for f in doc["reentrancyAllowing"]:
        yield f"  reentrancy-allowing {f['signature']} ({f['votes']} votes)"


def _parse_file(path: Path):
    try:
        return parse(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, ParseError) as err:
        _diagnose(diagnostic(path, err))
        return None


def _read_facts(path: Path):
    """The facts in a facts file, or None after a one-line diagnostic."""
    try:
        return corpus_mod.read_facts(path)
    except (OSError, ValueError) as err:
        _diagnose(diagnostic(path, err))
        return None


def _analyze_file(path: Path, contract, config: AnalysisConfig):
    """The analysis result of one parsed file, or None after a one-line
    diagnostic: a failure inside the analysis is the input's, not a crash."""
    try:
        return analyze(contract, config)
    except Exception as err:
        _diagnose(diagnostic(path, err))
        return None


def cmd_analyze(args) -> int:
    contract = _parse_file(args.file)
    if contract is None:
        return EXIT_USAGE
    result = _analyze_file(args.file, contract, config_from_args(args))
    if result is None:
        return EXIT_USAGE
    if args.format == "json":
        report = result.to_json_text() + "\n"
    else:
        report = _render(result.to_json_dict(), "text", _result_lines)
    if not _emit(report):
        return EXIT_USAGE
    return EXIT_RESOURCE if result.truncated else EXIT_OK


def cmd_scan(args) -> int:
    contract = _parse_file(args.file)
    if contract is None:
        return EXIT_USAGE
    facts = None
    if args.facts is not None:
        facts = _read_facts(args.facts)
        if facts is None:
            return EXIT_USAGE
    result = _analyze_file(args.file, contract, config_from_args(args))
    if result is None:
        return EXIT_USAGE
    warnings = run_detectors(result, facts)
    if not _emit(_render(warnings_json(warnings), args.format,
                         _warning_lines)):
        return EXIT_USAGE
    if result.truncated:
        return EXIT_RESOURCE
    return EXIT_WARNINGS if warnings else EXIT_OK


def _report_errors(errors: dict):
    for path in sorted(errors):
        _diagnose(errors[path])


def _corpus_exit(errors, truncated, warnings) -> int:
    if errors:
        return EXIT_USAGE
    if truncated:
        return EXIT_RESOURCE
    return EXIT_WARNINGS if warnings else EXIT_OK


def _io_failed(err: OSError) -> int:
    """One diagnostic line for an unlistable corpus or unwritable output."""
    _diagnose(diagnostic(err.filename, err))
    return EXIT_USAGE


def cmd_corpus_build(args) -> int:
    config = config_from_args(args)
    try:
        results, errors = corpus_mod.analyze_corpus(
            args.dir, config, args.jobs, write_outputs=True)
        corpus_mod.remove_stale_outputs(args.dir, results)
    except OSError as err:  # no corpus, or out cannot be made or cleaned
        return _io_failed(err)
    out = corpus_mod.corpus_out_dir(args.dir)
    # a contract whose report could not be written leaves the index
    index = [{"contract": name, "truncated": result.truncated,
              "inferences": len(result.inferences)}
             for name, result in results.items()
             if corpus_mod.report_path(out, name) not in errors]
    _report_errors(errors)
    if not _emit(_render(
            {"schema": "symvalic-corpus-index/1", "contracts": index},
            args.format,
            lambda d: (f"{c['contract']}: {c['inferences']} inferences"
                       for c in d["contracts"]))):
        return EXIT_USAGE
    truncated = any(r.truncated for r in results.values())
    return _corpus_exit(errors, truncated, warnings=False)


def cmd_corpus_infer(args) -> int:
    config = config_from_args(args)
    thresholds = thresholds_from_args(args)
    try:
        results, errors = corpus_mod.analyze_corpus(args.dir, config, args.jobs)
        _report_errors(errors)
        # refine parses the same files: its errors are among these
        outcome = corpus_mod.refine(args.dir, rounds=args.rounds,
                                    config=config, thresholds=thresholds,
                                    results=results)
    except OSError as err:  # no corpus, or a facts round cannot be written
        return _io_failed(err)
    final_round = len(outcome.facts_rounds)
    if not _emit(_render(facts_json(outcome.facts, final_round, thresholds),
                         args.format, _facts_lines)):
        return EXIT_USAGE
    truncated = any(r.truncated for r in outcome.results.values())
    return _corpus_exit(errors, truncated, warnings=False)


def cmd_corpus_scan(args) -> int:
    config = config_from_args(args)
    thresholds = thresholds_from_args(args)
    facts_path = corpus_mod.latest_facts_path(args.dir)
    facts = None
    if facts_path is not None:
        facts = _read_facts(facts_path)
        if facts is None:
            return EXIT_USAGE
    try:
        results, errors = corpus_mod.analyze_corpus(args.dir, config, args.jobs)
        _report_errors(errors)
        if facts is None:
            facts = corpus_mod.refine(args.dir, rounds=args.rounds,
                                      config=config, thresholds=thresholds,
                                      results=results).facts
    except OSError as err:  # no corpus, or a facts round cannot be written
        return _io_failed(err)
    all_warnings = []
    for name in sorted(results):
        all_warnings.extend(anomalies(results[name], facts))
    if not _emit(_render(warnings_json(all_warnings), args.format,
                         _warning_lines)):
        return EXIT_USAGE
    truncated = any(r.truncated for r in results.values())
    return _corpus_exit(errors, truncated, warnings=bool(all_warnings))


def main(argv: list | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    if args.seed is None:
        text = os.environ.get("SYMVALIC_SEED", "1")
        try:
            args.seed = int(text)
        except ValueError:
            _diagnose(f"SYMVALIC_SEED: {text!r} is not an integer")
            return EXIT_USAGE
    handlers = {
        "analyze": cmd_analyze,
        "scan": cmd_scan,
        "corpus-build": cmd_corpus_build,
        "corpus-infer": cmd_corpus_infer,
        "corpus-scan": cmd_corpus_scan,
    }
    return handlers[args.command](args)


def run(argv: list | None = None):
    """Run main, flush stdout and stderr, and end the process with main's
    exit status, skipping the interpreter's teardown (see the module
    docstring). A stdout that refuses the final flush gives the one
    `<stdout>: message` line and exit 2, as a refused report does."""
    status = main(argv)
    if sys.stdout is not None and not _emit(""):
        status = EXIT_USAGE
    if sys.stderr is not None:
        try:
            sys.stderr.flush()
        except OSError:
            pass  # nowhere left to report it
    os._exit(status)


if __name__ == "__main__":
    run()
