"""Run one symvalic CLI command in this process, optionally traced.

The tracer wraps the public functions of each layer from outside: it
rebinds every module namespace (and class) of the ``symvalic`` package that
holds one of them, so calls made through any import path are seen. Spans
nest on a stack; a span's self time is its duration minus the time its
traced children cover. Counters are taken from the wrapped functions'
results at the same boundaries.

    python3 bench/tracer.py --src SRC --report FILE --stdout FILE
                            [--trace] -- CLI-ARGS...

The report (JSON) holds the exit status, the wall time of ``cli.main``,
per-span [calls, self seconds, total seconds], the counters, and which
namespaces were rebound. The command's stdout goes to the --stdout file.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import sys
import time
import traceback
import types
from collections import Counter

# (span name, module, attribute); "Class.method" wraps a method
LAYER_FUNCTIONS = (
    ("parser.parse", "symvalic.parser", "parse"),
    ("parser.tokenize", "symvalic.parser", "tokenize"),
    ("valueflow.analyze", "symvalic.valueflow", "analyze"),
    ("valueflow.seed_inputs", "symvalic.valueflow", "seed_inputs"),
    ("valueflow.to_json_dict", "symvalic.valueflow",
     "AnalysisResult.to_json_dict"),
    ("valueflow.stmt_reachable", "symvalic.valueflow",
     "AnalysisResult.stmt_reachable"),
    ("deps.combine", "symvalic.deps", "combine"),
    ("deps.restrict", "symvalic.deps", "restrict"),
    ("symexpr.normalize", "symvalic.symexpr", "normalize"),
    ("symexpr.substitute", "symvalic.symexpr", "substitute"),
    ("symexpr.implies", "symvalic.symexpr", "implies"),
    ("symexpr.value_for_var", "symvalic.symexpr", "value_for_var"),
    ("clients.run_detectors", "symvalic.clients", "run_detectors"),
    ("corpus.summarize", "symvalic.corpus", "summarize"),
    ("corpus.aggregate", "symvalic.corpus", "aggregate"),
    ("corpus.infer_domain_facts", "symvalic.corpus", "infer_domain_facts"),
    ("corpus.anomalies", "symvalic.corpus", "anomalies"),
    ("corpus.load_corpus", "symvalic.corpus", "load_corpus"),
    ("corpus.refine", "symvalic.corpus", "refine"),
    ("cli.main", "symvalic.cli", "main"),
)


class Tracer:
    def __init__(self):
        self.stack: list = []
        self.spans: dict = {}  # name -> [calls, self_s, total_s]
        self.counters: Counter = Counter()
        self.bindings: dict = {}  # span name -> ["module.attr", ...]

    def wrap(self, name: str, fn, on_result=None):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]  # time covered by traced children
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += took - frame[0]
                stats[2] += took
                if stack:
                    stack[-1][0] += took
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every LAYER_FUNCTIONS entry wherever symvalic binds it."""
        import symvalic.cli  # noqa: F401  (loads every symvalic module)
        from symvalic.deps import Conflict

        counters = self.counters

        def on_analyze(result):
            counters["valueflow.inferences"] += len(result.inferences)
            counters["valueflow.reach_facts"] += len(result.reachability)
            counters["valueflow.trim_notes"] += sum(
                "trimmed" in note for note in result.notes)

        def on_combine(result):
            counters["deps.combine.conflicts"] += isinstance(result, Conflict)

        def on_implies(result):
            counters["symexpr.implies.true"] += bool(result)

        def on_value_for_var(result):
            counters["symexpr.value_for_var.proposals"] += len(result)

        def on_detectors(result):
            counters["clients.warnings"] += len(result)

        def on_refine(result):
            counters["corpus.refine.rounds"] += len(result.facts_rounds)

        hooks = {
            "valueflow.analyze": on_analyze,
            "deps.combine": on_combine,
            "symexpr.implies": on_implies,
            "symexpr.value_for_var": on_value_for_var,
            "clients.run_detectors": on_detectors,
            "corpus.refine": on_refine,
        }
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "symvalic" or n.startswith("symvalic."))
                   and isinstance(m, types.ModuleType)]
        for name, module_name, attr in LAYER_FUNCTIONS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                wrapped = self.wrap(name, getattr(cls, meth), hooks.get(name))
                setattr(cls, meth, wrapped)
                self.bindings[name] = [f"{module_name}.{attr}"]
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, hooks.get(name))
            bound = []
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        bound.append(f"{module.__name__}.{key}")
            self.bindings[name] = bound

        # json.dumps is shared with every module; trace only the CLI's calls
        cli = sys.modules["symvalic.cli"]
        proxy = types.ModuleType("json")
        proxy.__dict__.update(vars(json))
        proxy.dumps = self.wrap("cli.json_dumps", json.dumps)
        cli.json = proxy
        self.bindings["cli.json_dumps"] = ["symvalic.cli.json.dumps"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--stdout", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = p.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    sys.path.insert(0, args.src)
    tracer = Tracer()
    if args.trace:
        tracer.install()
    import symvalic.cli as cli

    buf = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(cli_args)
    except SystemExit as stop:
        code = stop.code if isinstance(stop.code, int) else 2
    except Exception:  # reported as a failed command, never re-raised
        code = 1
        error = traceback.format_exc()
    wall = time.perf_counter() - start

    with open(args.stdout, "wb") as out:
        out.write(buf.getvalue().encode("utf-8"))
    report = {"exit": code, "wall_s": wall, "error": error,
              "spans": tracer.spans, "counters": dict(tracer.counters),
              "bindings": tracer.bindings}
    with open(args.report, "w") as out:
        json.dump(report, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
