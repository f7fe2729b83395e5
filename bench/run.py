#!/usr/bin/env python3
"""The symvalic benchmark: end-to-end CLI runs with known-answer checks,
and a traced run that splits the time by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--smoke]

Workloads (inputs generated from --seed, see workloads.py):

  audit-branchy  closed loop, one client: ``scan FILE`` on each contract of
                 a seeded family like the "Big" contract, default 3 rounds.
  corpus-small   ``corpus-build``, ``corpus-infer``, ``corpus-scan`` at
                 --jobs 2 on ~300 small contracts.
  corpus-gated   ``corpus-build``, ``corpus-scan`` at --jobs 1 on 20 medium
                 contracts with gates on address parameters.

With ``--trace 0`` the real CLI runs as child processes (``python -m
symvalic.cli``) for --seconds; each unit of work (one scan, or one whole
command pipeline in a fresh directory) is timed from process start to exit,
and its peak RSS comes from ``os.wait4`` (pool workers included, since the
CLI reaps them). Times are reported scaled to a reference machine speed
(see end_to_end) and also as measured. On audit-branchy a run at 35 s
makes 27 scans on a 2-core host, so the highest percentile with 10 scans
beyond it is p62. With ``--trace 1`` the same inputs go once through
``symvalic.cli.main`` in a fresh process per command at --jobs 1, first
untraced and then traced (bench/tracer.py); the difference of the two wall
times is the tracing overhead.

Every verdict is checked against the answer the generator built in. A
contract fails when its verdict differs, when its command ends in a
traceback or exit 2, or when it is truncated (exit 3). Every document a
unit produces (stdout of each command, out/*.result.json,
out/facts.round-*.json) goes into a SHA-256 that must repeat exactly.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. ``correct`` is false when the harness itself could not vouch for
the run: outputs that differ between identical repeats, traced and
untraced outputs that differ, parse counts off the known values, or a
command killed at the time limit. Wrong verdicts count in ``failed``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads as gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACER = Path(__file__).resolve().parent / "tracer.py"
REFERENCE = Path(__file__).resolve().parent / "reference.py"

HASH_SEED = "0"        # warning order depends on it today
SETUP_REPEATS = 9      # setup_s is the median of these
RUN_LIMIT_S = 170.0    # every child is killed past this point of the run
AUDIT_CONTRACTS = 27   # the 3 x 3 size grid three times over
TRACE_CONTRACTS = 9    # audit contracts in the traced pass: the size grid
TAIL_SAMPLES = 10      # a reported percentile keeps this many beyond it
REFERENCE_S = 0.1      # nominal time of reference.py; see end_to_end()


class Run:
    """State of one benchmark invocation: deadline, child environment,
    peak RSS and the checks that decide ``correct``."""

    def __init__(self, work: Path):
        self.work = work
        self.start = time.perf_counter()
        self.peak_rss_kb = 0
        self.ref_times: list = []
        self.ref_wall = 0.0  # time spent on reference samples
        self.problems: list = []
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("PYTHON") and k != "SYMVALIC_SEED"}
        env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED=HASH_SEED,
                   PYTHONIOENCODING="utf-8")
        self.env = env

    def child(self, argv: list, cwd: Path, stdout: Path) -> tuple:
        """Run argv to completion; (exit status, wall seconds, stderr)."""
        limit = RUN_LIMIT_S - (time.perf_counter() - self.start)
        if limit <= 0:
            raise TimeoutError("run time limit reached")
        err_path = stdout.with_suffix(".err")
        with open(stdout, "wb") as out, open(err_path, "wb") as err:
            began = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out,
                                    stderr=err)
            killer = threading.Timer(limit, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            took = time.perf_counter() - began
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if proc.returncode < 0:
            self.problems.append(f"{argv[-4:]} killed at the time limit")
        return proc.returncode, took, err_path.read_text(errors="replace")

    def reference(self):
        """One sample of reference.py, in a fresh process like the CLI's."""
        began = time.perf_counter()
        out = subprocess.run([sys.executable, str(REFERENCE)], env=self.env,
                             capture_output=True, text=True, check=True,
                             timeout=60).stdout
        self.ref_times.append(float(out))
        self.ref_wall += time.perf_counter() - began

    def cli(self, args: list, cwd: Path, stdout: Path) -> tuple:
        return self.child([sys.executable, "-m", "symvalic.cli", *args],
                          cwd, stdout)

    def traced(self, args: list, cwd: Path, stdout: Path, trace: bool
               ) -> dict:
        report = stdout.with_suffix(".report.json")
        argv = [sys.executable, str(TRACER), "--src", str(SRC),
                "--report", str(report), "--stdout", str(stdout)]
        code, _, stderr = self.child(
            argv + (["--trace"] if trace else []) + ["--", *args],
            cwd, stdout.with_suffix(".tracer.out"))
        if code != 0:
            raise RuntimeError(f"tracer failed: {stderr[-2000:]}")
        return json.loads(report.read_text())


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()


def _doc(data: bytes):
    try:
        return json.loads(data)
    except ValueError:
        return None


def _crashed(code: int, stderr: str) -> bool:
    return code == 2 or code < 0 or "Traceback" in stderr


def _facts_tuple(doc) -> tuple:
    """A symvalic-facts/1 document in the form workloads.Expected uses."""
    try:
        return (
            tuple((f["signature"], f["position"], f["taintedCount"],
                   f["untaintedCount"]) for f in doc["sensitiveArgs"]),
            tuple((f["signature"], f["guardedCallers"],
                   f["unguardedCallers"]) for f in doc["usuallyGuarded"]),
            tuple((f["signature"], f["votes"])
                  for f in doc["reentrancyAllowing"]),
        )
    except (KeyError, TypeError):
        return None


def _verdicts(doc, names) -> dict:
    """contract -> sorted ((function, kind), ...) from a warnings doc."""
    found = {name: set() for name in names}
    for w in doc["warnings"]:
        found.setdefault(w["contract"], set()).add((w["function"], w["kind"]))
    return {name: tuple(sorted(rows)) for name, rows in found.items()}


def _percentile(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _tail_percentile(count: int) -> int:
    """Highest whole percentile with TAIL_SAMPLES samples beyond it."""
    return max(50, int(100 * (1 - TAIL_SAMPLES / count))) if count else 50


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Audit:
    """Closed loop, one client: ``scan`` each contract in turn."""

    def __init__(self, smoke: bool):
        self.count = 3 if smoke else AUDIT_CONTRACTS
        self.trace_count = min(self.count, TRACE_CONTRACTS)

    def generate(self, inputs: Path, seed: int):
        self.expected = gen.write_audit_branchy(inputs, seed, self.count)
        self.inputs = inputs
        self.names = list(self.expected.verdicts)

    def path(self, name: str) -> Path:
        return self.inputs / f"{name.lower()}.svc"

    def check(self, name: str, code: int, stderr: str, out: bytes) -> bool:
        want = self.expected.verdicts[name]
        doc = _doc(out)
        if _crashed(code, stderr) or code == 3 or doc is None:
            return False
        if code != (1 if want else 0):
            return False
        try:
            return _verdicts(doc, [name]) == {name: want}
        except (KeyError, TypeError):  # not the documented shape
            return False

    def timed(self, run: Run, work: Path, seconds: float) -> dict:
        docs: dict = {}
        latencies, failed = [], 0
        start = time.perf_counter()
        i = 0
        while (time.perf_counter() - start < seconds
               or len(docs) < len(self.names)):
            name = self.names[i % len(self.names)]
            i += 1
            run.reference()
            code, took, stderr = run.cli(["scan", str(self.path(name))],
                                         work, work / "scan.out")
            out = (work / "scan.out").read_bytes()
            latencies.append(took)
            failed += not self.check(name, code, stderr, out)
            digest = _sha(out)
            if docs.setdefault(name, digest) != digest:
                run.problems.append(f"scan output of {name} changed")
        phase = time.perf_counter() - start - run.ref_wall
        tail = _tail_percentile(len(latencies))
        return {
            "attempted": len(latencies), "failed": failed, "phase": phase,
            "units": latencies,
            "hash": _sha(*(docs[n].encode() for n in self.names)),
            "info": {
                "scan_p50_s": (statistics.median(latencies), "s"),
                f"scan_p{tail}_s": (_percentile(latencies, tail / 100), "s"),
                "scans": (len(latencies), "count"),
            },
        }

    def trace(self, run: Run, work: Path) -> dict:
        reports, failed = {False: [], True: []}, 0
        for name in self.names[: self.trace_count]:
            outs = []
            for traced in (False, True):
                stdout = work / f"{name}.{int(traced)}.out"
                rep = run.traced(["scan", str(self.path(name))], work,
                                 stdout, traced)
                reports[traced].append(("scan", 1, rep))
                outs.append(stdout.read_bytes())
            failed += not self.check(name, rep["exit"], rep["error"] or "",
                                     outs[1])
            if outs[0] != outs[1]:
                run.problems.append(f"traced scan of {name} changed output")
        return {"attempted": self.trace_count, "failed": failed,
                "reports": reports, "contracts": 1}


class Corpus:
    """One unit is the whole command pipeline in a fresh directory."""

    def __init__(self, commands: tuple, jobs: int, write, size: int):
        self.commands = commands
        self.jobs = jobs
        self.write = write
        self.size = size

    def generate(self, inputs: Path, seed: int):
        self.expected = self.write(inputs, seed, self.size)
        self.inputs = inputs
        self.names = sorted(self.expected.verdicts)

    def fresh(self, work: Path, label: str) -> Path:
        corpus = work / label
        shutil.rmtree(corpus, ignore_errors=True)
        shutil.copytree(self.inputs, corpus)
        return corpus

    def check(self, corpus: Path, results: list) -> tuple:
        """(failed contract names, output hash) of one pipeline."""
        exp = self.expected
        failed: set = set()
        whole = False  # a corpus-level answer is wrong: every contract fails
        parts = []
        out_dir = corpus / "out"
        for command, code, stderr, out in results:
            parts += [command.encode(), out]
            doc = _doc(out)
            if _crashed(code, stderr) or doc is None:
                whole = True
                continue
            try:
                if command == "corpus-build":
                    failed |= self._check_build(doc, out_dir)
                    whole |= code != 0
                elif command == "corpus-infer":
                    whole |= (code != 0 or doc["round"] != exp.fact_rounds
                              or _facts_tuple(doc) != exp.facts)
                else:
                    whole |= code != (1 if any(exp.verdicts.values()) else 0)
                    got = _verdicts(doc, self.names)
                    whole |= set(got) != set(self.names)
                    failed |= {n for n in self.names
                               if got[n] != exp.verdicts[n]}
            except (KeyError, TypeError):  # not the documented shape
                whole = True
        rounds = sorted(out_dir.glob("facts.round-*.json"))
        latest = _doc(rounds[-1].read_bytes()) if rounds else None
        whole |= (len(rounds) != exp.fact_rounds
                  or _facts_tuple(latest) != exp.facts)
        for path in (sorted(out_dir.glob("*.result.json")) + rounds):
            parts += [path.name.encode(), path.read_bytes()]
        if whole:
            failed = set(self.names)
        return failed & set(self.names), _sha(*parts)

    def _check_build(self, doc: dict, out_dir: Path) -> set:
        """Contracts missing from the index or results, or truncated."""
        rows = {r["contract"]: r for r in doc["contracts"]}
        failed = set(rows) ^ set(self.names)
        for name in self.names:
            path = out_dir / f"{name}.result.json"
            res = _doc(path.read_bytes()) if path.is_file() else None
            if (name not in rows or rows[name]["truncated"] or res is None
                    or res.get("contract") != name or res.get("truncated")):
                failed.add(name)
        return failed

    def cli_args(self, command: str, corpus: Path, jobs: int) -> list:
        return [command, str(corpus), "--jobs", str(jobs)]

    def timed(self, run: Run, work: Path, seconds: float) -> dict:
        units, per_command, hashes = [], {c: [] for c in self.commands}, set()
        attempted = failed = 0
        start = time.perf_counter()
        cycle = 0
        while cycle == 0 or time.perf_counter() - start < seconds:
            corpus = self.fresh(work, "cycle")
            results, total = [], 0.0
            for command in self.commands:
                stdout = work / f"{command}.out"
                run.reference()
                code, took, stderr = run.cli(
                    self.cli_args(command, corpus, self.jobs), work, stdout)
                per_command[command].append(took)
                total += took
                results.append((command, code, stderr, stdout.read_bytes()))
            bad, digest = self.check(corpus, results)
            hashes.add(digest)
            units.append(total)
            attempted += len(self.names)
            failed += len(bad)
            cycle += 1
        phase = time.perf_counter() - start - run.ref_wall
        if len(hashes) != 1:
            run.problems.append("pipeline output changed between cycles")
        labels = {"corpus-build": "build_s", "corpus-infer": "infer_s",
                  "corpus-scan": "corpus_scan_s"}
        info = {labels[c]: (statistics.median(t), "s")
                for c, t in per_command.items()}
        info["cycles"] = (cycle, "count")
        return {"attempted": attempted, "failed": failed, "phase": phase,
                "units": units, "hash": min(hashes), "info": info}

    def trace(self, run: Run, work: Path) -> dict:
        reports, digests, failed = {False: [], True: []}, [], 0
        for traced in (False, True):
            corpus = self.fresh(work, f"trace{int(traced)}")
            results = []
            for command in self.commands:
                # corpus-scan parses a third time when it has to refine
                has_facts = any((corpus / "out").glob("facts.round-*.json"))
                parses = {"corpus-build": 2, "corpus-infer": 3}.get(
                    command, 2 if has_facts else 3)
                stdout = work / f"{command}.{int(traced)}.out"
                rep = run.traced(self.cli_args(command, corpus, 1), work,
                                 stdout, traced)
                reports[traced].append((command, parses, rep))
                results.append((command, rep["exit"], rep["error"] or "",
                                stdout.read_bytes()))
            bad, digest = self.check(corpus, results)
            digests.append(digest)
            failed = len(bad)
        if digests[0] != digests[1]:
            run.problems.append("traced pipeline changed its outputs")
        return {"attempted": len(self.names), "failed": failed,
                "reports": reports, "contracts": len(self.names)}


def make_workload(name: str, smoke: bool):
    jobs = min(2, len(os.sched_getaffinity(0)))
    if name == "audit-branchy":
        return Audit(smoke)
    if name == "corpus-small":
        return Corpus(("corpus-build", "corpus-infer", "corpus-scan"),
                      jobs, gen.write_corpus_small,
                      36 if smoke else gen.SMALL_BENIGN)
    if name == "corpus-gated":
        return Corpus(("corpus-build", "corpus-scan"), 1,
                      gen.write_corpus_gated,
                      10 if smoke else gen.GATED_CONTRACTS)
    raise ValueError(f"unknown workload {name}")


WORKLOADS = ("audit-branchy", "corpus-small", "corpus-gated")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


WARM_UP = ("contract WarmUp {\n"
           "    function sensitive() public {\n"
           "        selfdestruct(msg.sender);\n    }\n}\n")


def setup(wl, run: Run, seed: int, repeats: int) -> list:
    """Generate and write the inputs, then one untimed warm-up command (the
    same small ``scan`` for every workload); repeated in fresh directories.
    Returns the wall time of each."""
    times = []
    for i in range(repeats):
        began = time.perf_counter()
        inputs = run.work / f"inputs{i}"
        shutil.rmtree(inputs, ignore_errors=True)
        wl.generate(inputs, seed)
        warm_up = run.work / "warmup.svc"
        warm_up.write_text(WARM_UP)
        run.cli(["scan", str(warm_up)], run.work, run.work / "warmup.out")
        times.append(time.perf_counter() - began)
    return times


def end_to_end(wl, run: Run, seed: int, seconds: float) -> tuple:
    """The end-to-end metrics, with times scaled to a machine on which
    reference.py takes REFERENCE_S.

    On a shared 2-core virtual machine the time of one fixed command
    drifted by up to 2x within an hour, and the allocation-heavy reference
    task, sampled in a fresh process before every timed command, drifted
    with it. Scaling by the run's median sample cancels most of the drift;
    the wall-clock figures are printed beside the scaled ones.
    """
    setups = setup(wl, run, seed, SETUP_REPEATS)
    res = wl.timed(run, run.work, seconds)
    ref = statistics.median(run.ref_times)
    scale = REFERENCE_S / ref
    latency = statistics.median(res["units"])
    throughput = res["attempted"] / res["phase"]
    setup_s = statistics.median(setups)
    metrics = {
        "contracts_per_s": (throughput / scale, "1/s"),
        "peak_rss_mb": (run.peak_rss_kb / 1024, "MB"),
        "setup_s": (setup_s * scale, "s"),
    }
    # The median unit is reported but not gated: on audit-branchy the scan
    # times are bimodal (guarded functions prune early), so the median
    # moves between contracts from run to run.
    info = {"latency_p50_s": (latency * scale, "s"),
            "reference_s": (ref, "s"),
            "latency_p50_wall_s": (latency, "s"),
            "contracts_per_wall_s": (throughput, "1/s"),
            "setup_wall_s": (setup_s, "s")}
    info.update(res["info"])
    info["failed_frac"] = (res["failed"] / res["attempted"], "ratio")
    # a child's ru_maxrss starts from this process's peak (it is forked
    # from it), so peak_rss_mb is the children's only while this is lower
    info["harness_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return res, metrics, info, res["hash"]


def per_layer(wl, run: Run, seed: int) -> tuple:
    setup(wl, run, seed, 1)
    res = wl.trace(run, run.work)
    spans: dict = {}
    counters: dict = {}
    parses: dict = {}
    for command, want, rep in res["reports"][True]:
        for name, (calls, self_s, _total) in rep["spans"].items():
            s = spans.setdefault(name, [0, 0.0])
            s[0] += calls
            s[1] += self_s
        for name, value in rep["counters"].items():
            counters[name] = counters.get(name, 0) + value
        got = rep["spans"]["parser.parse"][0] / res["contracts"]
        parses[command] = got
        if got != want:
            run.problems.append(
                f"{command}: {got} parses per contract, expected {want}")
        missing = [n for n, b in rep["bindings"].items() if not b]
        if missing:
            run.problems.append(f"tracer bound nothing for {missing}")
    walls = {t: sum(rep["wall_s"] for _, _, rep in res["reports"][t])
             for t in (False, True)}

    def calls(name):
        return (spans.get(name, [0, 0.0])[0], "count")

    def self_s(name):
        return (spans.get(name, [0, 0.0])[1], "s")

    def frac(num, den):
        return (num / den if den else 0.0, "ratio")

    commands = len(res["reports"][True])
    metrics = {
        "parser.parse.calls": calls("parser.parse"),
        "parser.parse.self_s": self_s("parser.parse"),
        "parser.tokenize.self_s": self_s("parser.tokenize"),
        "parser.parses_per_contract": (
            calls("parser.parse")[0] / (res["contracts"] * commands),
            "count"),
        "valueflow.analyze.calls": calls("valueflow.analyze"),
        "valueflow.engine.self_s": self_s("valueflow.analyze"),
        "valueflow.seed_inputs.calls": calls("valueflow.seed_inputs"),
        "valueflow.seed_inputs.self_s": self_s("valueflow.seed_inputs"),
        "valueflow.inferences": (counters.get("valueflow.inferences", 0),
                                 "count"),
        "valueflow.reach_facts": (counters.get("valueflow.reach_facts", 0),
                                  "count"),
        "valueflow.trim_notes": (counters.get("valueflow.trim_notes", 0),
                                 "count"),
        "valueflow.to_json_dict.self_s": self_s("valueflow.to_json_dict"),
        "valueflow.stmt_reachable.calls": calls("valueflow.stmt_reachable"),
        "deps.combine.calls": calls("deps.combine"),
        "deps.combine.self_s": self_s("deps.combine"),
        "deps.combine.conflict_frac": frac(
            counters.get("deps.combine.conflicts", 0),
            calls("deps.combine")[0]),
        "deps.restrict.calls": calls("deps.restrict"),
        "deps.restrict.self_s": self_s("deps.restrict"),
    }
    for fn in ("normalize", "substitute", "implies", "value_for_var"):
        metrics[f"symexpr.{fn}.calls"] = calls(f"symexpr.{fn}")
        metrics[f"symexpr.{fn}.self_s"] = self_s(f"symexpr.{fn}")
    metrics["symexpr.implies.true_frac"] = frac(
        counters.get("symexpr.implies.true", 0), calls("symexpr.implies")[0])
    metrics["symexpr.value_for_var.proposals"] = (
        counters.get("symexpr.value_for_var.proposals", 0), "count")
    metrics["clients.run_detectors.calls"] = calls("clients.run_detectors")
    metrics["clients.run_detectors.self_s"] = self_s("clients.run_detectors")
    metrics["clients.warnings"] = (counters.get("clients.warnings", 0),
                                   "count")
    for fn in ("summarize", "aggregate", "infer_domain_facts", "anomalies",
               "load_corpus"):
        metrics[f"corpus.{fn}.self_s"] = self_s(f"corpus.{fn}")
    metrics["corpus.refine.rounds"] = (counters.get("corpus.refine.rounds", 0),
                                       "count")
    metrics["cli.main.self_s"] = self_s("cli.main")
    metrics["cli.json_dumps.self_s"] = self_s("cli.json_dumps")
    metrics["cli.output_bytes"] = (output_bytes(run.work), "B")
    metrics["trace.wall_s"] = (walls[True], "s")
    metrics["trace.overhead_s"] = (walls[True] - walls[False], "s")
    info = {f"parses_per_contract[{c}]": (got, "count")
            for c, got in parses.items()}
    return res, metrics, info


def output_bytes(work: Path) -> int:
    """Bytes of every document the traced pass produced: the stdout of
    each traced command plus the traced corpus's out/ directory."""
    total = sum(p.stat().st_size for p in work.glob("*.1.out"))
    out = work / "trace1" / "out"
    if out.is_dir():
        total += sum(p.stat().st_size for p in out.iterdir())
    return total


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs that exercise the whole harness")
    args = p.parse_args()

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # the harness sorts and hashes; keep its own process fixed too
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    if not (SRC / "symvalic" / "cli.py").is_file():
        print(f"symvalic sources not found under {SRC}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(work)
    wl = make_workload(args.workload, args.smoke)
    try:
        if args.trace:
            res, metrics, info = per_layer(wl, run, args.seed)
        else:
            res, metrics, info, digest = end_to_end(wl, run, args.seed,
                                                    args.seconds)
            info["output_sha256"] = (digest, "sha256")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    info["python_hash_seed"] = (HASH_SEED, "PYTHONHASHSEED")
    if isinstance(wl, Corpus):
        info["jobs"] = (wl.jobs, "count")
    for problem in run.problems:
        print(f"problem: {problem}")
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
