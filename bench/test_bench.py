"""The benchmark's own tests, on the smoke size of each workload.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def bench(workload: str, trace: int, seed: int = 1, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def info(lines: list) -> dict:
    out = {}
    for line in lines[:-1]:
        name, value, *_ = line.split(" ")
        out[name] = value
    return out


@pytest.mark.parametrize("workload", [w["name"] for w in MANIFEST["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    code, lines = bench(workload, trace)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = MANIFEST["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert "failed_frac" in info(lines)


def test_output_hash_repeats():
    hashes = {info(bench("corpus-small", 0)[1])["output_sha256"]
              for _ in range(2)}
    assert len(hashes) == 1


def test_known_parse_counts_on_63_contracts():
    # 2 parses per contract for corpus-build, 3 for corpus-infer, and 2 for
    # corpus-scan once facts exist (126, 189 and 126 on 63 contracts)
    code, lines = bench("corpus-small", 1)
    assert code == 0
    found = info(lines)
    metrics = json.loads(lines[-1])["metrics"]
    assert metrics["parser.parse.calls"]["value"] == 126 + 189 + 126
    assert float(found["parses_per_contract[corpus-build]"]) == 2
    assert float(found["parses_per_contract[corpus-infer]"]) == 3
    assert float(found["parses_per_contract[corpus-scan]"]) == 2


def test_tracer_rebinds_every_namespace(tmp_path):
    source = tmp_path / "one.svc"
    source.write_text("contract One {\n    function f() public {\n"
                      "        selfdestruct(msg.sender);\n    }\n}\n")
    report = tmp_path / "report.json"
    subprocess.run(
        [sys.executable, str(BENCH / "tracer.py"), "--src", str(ROOT / "src"),
         "--report", str(report), "--stdout", str(tmp_path / "out"),
         "--trace", "--", "scan", str(source)], check=True, timeout=60)
    rep = json.loads(report.read_text())
    assert rep["exit"] == 1 and rep["error"] is None
    bindings = rep["bindings"]
    assert {"symvalic.deps.combine", "symvalic.valueflow.combine"} <= set(
        bindings["deps.combine"])
    assert {"symvalic.cli.parse", "symvalic.corpus.parse",
            "symvalic.parser.parse"} <= set(bindings["parser.parse"])
    assert rep["spans"]["parser.parse"][0] == 1


def test_generators_are_deterministic(tmp_path):
    for i, write in enumerate((workloads.write_corpus_small,
                               workloads.write_corpus_gated)):
        first = write(tmp_path / f"a{i}", 7)
        second = write(tmp_path / f"b{i}", 7)
        assert first == second
        for path in (tmp_path / f"a{i}").iterdir():
            assert path.read_bytes() == (tmp_path / f"b{i}" / path.name
                                         ).read_bytes()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("corpus-small", 0, cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
