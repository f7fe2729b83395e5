"""CLI commands, exit-status contract, schemas, output determinism."""

import errno
import json
import os
import re
import shutil
import subprocess
import sys
import time
import tokenize

import jsonschema
import pytest

from pathlib import Path

from symvalic.cli import main
from symvalic.corpus import refine
from symvalic.schemas import FACTS_SCHEMA, RESULT_SCHEMA, WARNINGS_SCHEMA
from symvalic.symexpr import MAX_EXPR_DEPTH
from symvalic.valueflow import AnalysisConfig, analyze

from conftest import (
    DUPLICATE_FUNCTION, FIXTURES, gate_source, write_reentrancy_corpus,
    write_swap_corpus,
)
from helpers import nested


ROOT = Path(__file__).resolve().parent.parent


def package_env(**extra) -> dict:
    """The environment for a child Python that imports this checkout."""
    package = str(ROOT / "src")
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        filter(None, (package, os.environ.get("PYTHONPATH")))))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_scan_guarded_fixture_clean(capsys):
    code, out, _ = run_cli(capsys, "scan", str(FIXTURES / "safe.svc"))
    assert code == 0
    assert json.loads(out)["warnings"] == []


def test_scan_unguarded_fixture_warns(capsys):
    code, out, _ = run_cli(capsys, "scan",
                           str(FIXTURES / "unguarded_selfdestruct.svc"))
    assert code == 1
    doc = json.loads(out)
    jsonschema.validate(doc, WARNINGS_SCHEMA)
    kinds = {w["kind"] for w in doc["warnings"]}
    assert "UNGUARDED_SENSITIVE" in kinds


def test_syntax_error_exits_2_no_stdout(capsys, tmp_path):
    bad = tmp_path / "bad.svc"
    bad.write_text("contract Broken { function f( }")
    code, out, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2
    assert out == ""
    assert "bad.svc" in err


def test_missing_file_exits_2(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "scan", str(tmp_path / "none.svc"))
    assert code == 2 and out == ""


def test_analyze_output_matches_schema(capsys):
    code, out, _ = run_cli(capsys, "analyze", str(FIXTURES / "safe.svc"))
    assert code == 0
    jsonschema.validate(json.loads(out), RESULT_SCHEMA)


def test_analyze_text_format(capsys, safe_contract):
    code, out, _ = run_cli(capsys, "analyze", str(FIXTURES / "safe.svc"),
                           "--format", "text", "--seed", "1")
    assert code == 0
    assert out.startswith("contract Safe")
    assert "nextBalance -> 181" in out
    # dependency maps read as DependencyMap.render() and warnings print them
    assert "<{} ; {sender -> <<owner>>}>" in out
    assert "'" not in out
    lines = set(out.splitlines())
    result = analyze(safe_contract, AnalysisConfig(seed=1))
    for i in result.inferences:
        assert (f"  {i.function}.{i.var} -> {i.value.render()} "
                f"{i.deps.render()}") in lines
    for r in result.reachability:
        assert (f"  reach s{r.stmt} ({r.function}) "
                f"{r.deps.render()}") in lines


def test_scan_text_format_no_warnings(capsys):
    code, out, _ = run_cli(capsys, "scan", str(FIXTURES / "safe.svc"),
                           "--format", "text")
    assert code == 0
    assert out.strip() == "no warnings"


def test_resource_cap_exit_code(capsys, tmp_path, monkeypatch):
    # an absurdly low round count can't trip it; force via env-seeded config
    src = FIXTURES / "safe.svc"
    monkeypatch.setenv("SYMVALIC_SEED", "1")
    # tx-rounds is legal down to 1; use the dedicated knob via analyze API
    from symvalic.parser import parse
    from symvalic.valueflow import AnalysisConfig, analyze
    r = analyze(parse(src.read_text()), AnalysisConfig(max_inferences=5))
    assert r.truncated


def test_corpus_build_writes_results(capsys, tmp_path):
    corpus = write_swap_corpus(tmp_path / "corpus", benign=3)
    code, out, _ = run_cli(capsys, "corpus-build", str(corpus), "--jobs", "1")
    assert code == 0
    results = sorted(p.name for p in (corpus / "out").glob("*.result.json"))
    assert "SwapTainted.result.json" in results
    assert len(results) == 4
    doc = json.loads((corpus / "out" / "SwapTainted.result.json").read_text())
    jsonschema.validate(doc, RESULT_SCHEMA)
    index = json.loads(out)
    assert len(index["contracts"]) == 4


def test_corpus_build_removes_the_outputs_of_a_removed_contract(capsys,
                                                                tmp_path):
    corpus = write_swap_corpus(tmp_path / "corpus", benign=3)
    assert run_cli(capsys, "corpus-build", str(corpus), "--jobs", "1")[0] == 0
    (corpus / "swapuser02.svc").unlink()
    assert run_cli(capsys, "corpus-build", str(corpus), "--jobs", "1")[0] == 0
    outputs = sorted(p.name for p in (corpus / "out").iterdir())
    assert outputs == [f"{name}.{kind}.json"
                       for name in ("SwapTainted", "SwapUser00", "SwapUser01")
                       for kind in ("analysis", "result")]


def test_corpus_infer_writes_fact_rounds(capsys, tmp_path):
    corpus = write_reentrancy_corpus(tmp_path / "corpus")
    code, out, _ = run_cli(capsys, "corpus-infer", str(corpus),
                           "--rounds", "3", "--jobs", "1")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, FACTS_SCHEMA)
    rounds = sorted(p.name for p in (corpus / "out").glob("facts.round-*.json"))
    assert rounds == ["facts.round-1.json", "facts.round-2.json",
                      "facts.round-3.json"]
    for name in rounds:
        jsonschema.validate(json.loads((corpus / "out" / name).read_text()),
                            FACTS_SCHEMA)
    sigs = {r["signature"] for r in doc["reentrancyAllowing"]}
    assert sigs == {"notify", "relay"}


def test_corpus_scan_emits_anomaly(capsys, tmp_path):
    corpus = write_swap_corpus(tmp_path / "corpus")
    code, out, _ = run_cli(capsys, "corpus-scan", str(corpus), "--jobs", "1")
    assert code == 1
    doc = json.loads(out)
    jsonschema.validate(doc, WARNINGS_SCHEMA)
    assert len(doc["warnings"]) == 1
    w = doc["warnings"][0]
    assert w["kind"] == "CORPUS_ANOMALY" and w["contract"] == "SwapTainted"


def test_corpus_parse_error_reported_and_skipped(capsys, tmp_path):
    corpus = write_swap_corpus(tmp_path / "corpus", benign=2)
    (corpus / "broken.svc").write_text("contract Broken {")
    code, out, err = run_cli(capsys, "corpus-build", str(corpus))
    assert code == 2
    assert "broken.svc" in err
    assert len(json.loads(out)["contracts"]) == 3  # others still analyzed


def test_scan_with_facts_enables_reentrancy_detector(capsys, tmp_path):
    corpus = write_reentrancy_corpus(tmp_path / "corpus")
    assert main(["corpus-infer", str(corpus), "--jobs", "1"]) == 0
    capsys.readouterr()
    facts_file = corpus / "out" / "facts.round-3.json"
    code, out, _ = run_cli(capsys, "scan", str(corpus / "victim.svc"),
                           "--facts", str(facts_file))
    assert code == 1
    kinds = {w["kind"] for w in json.loads(out)["warnings"]}
    assert kinds == {"REENTRANCY"}


FACTS = '{"schema": "symvalic-facts/1", '


@pytest.mark.parametrize("text", [
    "[]",
    "not json",
    '{"schema": "symvalic-facts/0"}',
    FACTS + '"sensitiveArgs": [1]}',
    FACTS + '"usuallyGuarded": {"signature": "burn"}}',
    FACTS + '"reentrancyAllowing": [{"signature": "notify", "votes": "3"}]}',
    FACTS + '"sensitiveArgs": [{"signature": "swap", "position": 0}]}',
], ids=["list", "not-json", "schema", "row-int", "rows-object", "votes-str",
        "missing-count"])
def test_scan_with_malformed_facts_exits_2_with_one_line(capsys, tmp_path,
                                                         text):
    facts_file = tmp_path / "facts.json"
    facts_file.write_text(text)
    code, out, err = run_cli(capsys, "scan", str(FIXTURES / "safe.svc"),
                             "--facts", str(facts_file))
    assert code == 2 and out == ""
    assert err.startswith(f"{facts_file}: ") and err.count("\n") == 1


def test_corpus_scan_with_malformed_facts_exits_2_with_one_line(capsys,
                                                                tmp_path):
    corpus = write_swap_corpus(tmp_path / "corpus", benign=2)
    facts_file = corpus / "out" / "facts.round-1.json"
    facts_file.parent.mkdir()
    facts_file.write_text("{")
    code, out, err = run_cli(capsys, "corpus-scan", str(corpus),
                             "--jobs", "1")
    assert code == 2 and out == ""
    assert err.startswith(f"{facts_file}: ") and err.count("\n") == 1


def test_corpus_scan_reuses_persisted_facts(capsys, tmp_path):
    corpus = write_swap_corpus(tmp_path / "corpus")
    assert main(["corpus-infer", str(corpus), "--jobs", "1"]) == 0
    capsys.readouterr()
    # newest persisted round is authoritative; no re-inference happens
    before = sorted(p.name for p in (corpus / "out").glob("facts.round-*"))
    code, out, _ = run_cli(capsys, "corpus-scan", str(corpus), "--jobs", "1")
    after = sorted(p.name for p in (corpus / "out").glob("facts.round-*"))
    assert code == 1 and before == after
    assert len(json.loads(out)["warnings"]) == 1


def test_corpus_infer_removes_the_rounds_of_an_earlier_run(capsys, tmp_path):
    corpus = write_swap_corpus(tmp_path / "corpus")
    assert run_cli(capsys, "corpus-infer", str(corpus), "--jobs", "1")[0] == 0
    assert (corpus / "out" / "facts.round-2.json").is_file()
    for path in sorted(corpus.glob("swapuser*.svc"))[5:]:
        path.unlink()  # 6 of the 20 contracts are left: too few samples
    code, out, _ = run_cli(capsys, "corpus-infer", str(corpus), "--jobs", "1")
    assert code == 0 and json.loads(out)["sensitiveArgs"] == []
    rounds = sorted(p.name for p in (corpus / "out").glob("facts.round-*"))
    assert rounds == ["facts.round-1.json"]
    code, out, _ = run_cli(capsys, "corpus-scan", str(corpus), "--jobs", "1")
    assert (code, json.loads(out)["warnings"]) == (0, [])


def reports(corpus: Path) -> dict:
    """The bytes of every out/*.result.json by file name."""
    return {p.name: p.read_bytes()
            for p in sorted((corpus / "out").glob("*.result.json"))}


@pytest.fixture
def pool_log(monkeypatch):
    """The source paths sent to each ProcessPoolExecutor the corpus
    commands make, one list per pool; the work runs in this process."""
    import concurrent.futures

    log = []

    class RecordingPool:
        def __init__(self, max_workers):
            self.sent = []
            log.append(self.sent)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            items = list(items)
            self.sent.extend(item[0] for item in items)
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    return log


def test_jobs_parallel_output_identical(capsys, tmp_path):
    corpus = write_swap_corpus(tmp_path / "corpus", benign=4)
    code1, out1, _ = run_cli(capsys, "corpus-build", str(corpus), "--jobs", "1")
    reports1 = reports(corpus)
    shutil.rmtree(corpus / "out")
    code2, out2, _ = run_cli(capsys, "corpus-build", str(corpus), "--jobs", "2")
    assert len(reports1) == 5
    assert (code1, out1, reports1) == (code2, out2, reports(corpus))


@pytest.mark.parametrize("command", ["corpus-infer", "corpus-scan"])
def test_cache_served_commands_start_no_pool(capsys, tmp_path, pool_log,
                                             command):
    corpus = write_swap_corpus(tmp_path / "corpus", benign=4)
    assert run_cli(capsys, "corpus-build", str(corpus), "--jobs", "1")[0] == 0
    parallel = run_cli(capsys, command, str(corpus), "--jobs", "2")
    assert pool_log == []
    assert parallel == run_cli(capsys, command, str(corpus), "--jobs", "1")


def test_only_contracts_whose_cache_misses_go_to_the_pool(capsys, tmp_path,
                                                          pool_log):
    corpus = write_swap_corpus(tmp_path / "corpus", benign=4)
    assert run_cli(capsys, "corpus-build", str(corpus), "--jobs", "1")[0] == 0
    edited = sorted(corpus.glob("*.svc"))[1:3]
    for path in edited:
        path.write_text(path.read_text() + "\n")
    code, out, _ = run_cli(capsys, "corpus-build", str(corpus), "--jobs", "2")
    assert code == 0 and len(json.loads(out)["contracts"]) == 5
    assert pool_log == [edited]


def test_a_build_from_the_caches_restores_the_reports(capsys, tmp_path,
                                                      pool_log):
    corpus = write_swap_corpus(tmp_path / "corpus", benign=4)
    first = run_cli(capsys, "corpus-build", str(corpus), "--jobs", "1")
    built = reports(corpus)
    for path in (corpus / "out").glob("*.result.json"):
        path.unlink()
    assert run_cli(capsys, "corpus-build", str(corpus), "--jobs", "2") == first
    assert pool_log == [] and reports(corpus) == built


def test_corpus_build_result_matches_a_lone_analysis(capsys, tmp_path):
    # a.svc is analyzed first in the same process as b.svc
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.svc").write_text(gate_source("A", "0xbeef"))
    (corpus / "b.svc").write_text(gate_source("B", "48879"))
    assert run_cli(capsys, "corpus-build", str(corpus), "--jobs", "1")[0] == 0
    proc = subprocess.run(
        [sys.executable, "-m", "symvalic.cli", "analyze",
         str(corpus / "b.svc")], capture_output=True, env=package_env())
    assert proc.returncode == 0
    assert (corpus / "out" / "B.result.json").read_bytes() == proc.stdout


def test_env_seed_fallback(capsys, tmp_path, monkeypatch):
    target = str(FIXTURES / "whichpaths.svc")
    monkeypatch.setenv("SYMVALIC_SEED", "7")
    _, out_env, _ = run_cli(capsys, "analyze", target)
    monkeypatch.delenv("SYMVALIC_SEED")
    _, out_flag, _ = run_cli(capsys, "analyze", target, "--seed", "7")
    assert json.loads(out_env)["config"]["seed"] == 7
    assert out_env == out_flag


def test_non_integer_env_seed_is_a_one_line_usage_error(capsys, monkeypatch):
    target = str(FIXTURES / "safe.svc")
    monkeypatch.setenv("SYMVALIC_SEED", "abc")
    assert run_cli(capsys, "scan", target) == (
        2, "", "SYMVALIC_SEED: 'abc' is not an integer\n")
    code, _, err = run_cli(capsys, "scan", target, "--seed", "7")
    assert code == 0 and err == ""  # the flag wins over the environment


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "symvalic.cli", "no-such-command"],
        capture_output=True, text=True)
    assert proc.returncode == 2


def test_text_format_renders_same_warnings(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "scan",
                           str(FIXTURES / "unguarded_selfdestruct.svc"),
                           "--format", "text")
    assert code == 1
    assert "UNGUARDED_SENSITIVE" in out


def test_scan_output_independent_of_hash_seed(tmp_path):
    # the two TAINTED_SENSITIVE_ARG warnings of transfer(to, to) tie on
    # contract, function, statement and kind
    src = tmp_path / "forward.svc"
    src.write_text("contract Forward {\n"
                   "    function pay(address to) public {\n"
                   "        transfer(to, to);\n    }\n}\n")
    outs = []
    for hash_seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "symvalic.cli", "scan", str(src)],
            capture_output=True, env=package_env(PYTHONHASHSEED=hash_seed))
        assert proc.returncode == 1
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


DEEP = ("contract Deep {\n    function f(uint a) public {\n        x = "
        + "(" * 3000 + "a" + ")" * 3000 + ";\n    }\n}\n")


def test_deep_nesting_scan_exits_2_without_traceback(tmp_path):
    deep = tmp_path / "deep.svc"
    deep.write_text(DEEP)
    proc = subprocess.run(
        [sys.executable, "-m", "symvalic.cli", "scan", str(deep)],
        capture_output=True, text=True, env=package_env())
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"{deep}:3:")
    assert proc.stderr.rstrip("\n").endswith("nesting too deep")
    assert proc.stderr.count("\n") == 1


def test_duplicate_function_name_scan_exits_2_with_one_line(tmp_path):
    dup = tmp_path / "dup.svc"
    dup.write_text(DUPLICATE_FUNCTION)
    proc = subprocess.run(
        [sys.executable, "-m", "symvalic.cli", "scan", str(dup)],
        capture_output=True, text=True, env=package_env())
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"{dup}:3:12: duplicate function name f\n"


STDOUT_CASES = [["scan"], ["analyze"], ["analyze", "--format", "text"]]


@pytest.mark.parametrize("argv", STDOUT_CASES,
                         ids=["scan", "analyze", "analyze-text"])
def test_a_closed_stdout_exits_2_with_one_line(argv):
    proc = subprocess.Popen(
        [sys.executable, "-m", "symvalic.cli", *argv,
         str(FIXTURES / "unguarded_selfdestruct.svc")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=package_env())
    proc.stdout.close()  # the reader is gone before the report is written
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 2
    assert err.startswith(f"<stdout>: [Errno {errno.EPIPE}] ")
    assert err.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", STDOUT_CASES,
                         ids=["scan", "analyze", "analyze-text"])
def test_a_full_stdout_exits_2_with_one_line(argv):
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "symvalic.cli", *argv,
             str(FIXTURES / "unguarded_selfdestruct.svc")],
            stdout=full, stderr=subprocess.PIPE, text=True,
            env=package_env())
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"<stdout>: [Errno {errno.ENOSPC}] ")
    assert proc.stderr.count("\n") == 1


# an interpreter whose locale codec is ASCII: no UTF-8 mode and no
# coercion of the C locale to a UTF-8 one
ASCII_LOCALE = {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}


def write_utf8_inputs(directory: Path) -> dict:
    """A source, a corpus and a facts file that hold UTF-8 text."""
    source = (FIXTURES / "safe.svc").read_text(encoding="utf-8").replace(
        "contract Safe", "contract Café")
    corpus = write_swap_corpus(directory / "corpus", benign=2)
    (corpus / "cafe.svc").write_bytes(source.encode("utf-8"))
    facts = directory / "facts.json"
    facts.write_bytes(json.dumps({
        "schema": "symvalic-facts/1", "round": 1,
        "thresholds": {"minSamples": 1, "untaintedFraction": 0.9,
                       "guardedFraction": 0.9},
        "sensitiveArgs": [], "usuallyGuarded": [],
        "reentrancyAllowing": [{"signature": "café.ping", "votes": 2}],
    }, ensure_ascii=False).encode("utf-8"))
    return {"source": corpus / "cafe.svc", "corpus": corpus, "facts": facts,
            "ascii-source": FIXTURES / "safe.svc"}


@pytest.mark.parametrize("argv", [
    ["scan", "source"], ["analyze", "--format", "text", "source"],
    ["scan", "--facts", "facts", "ascii-source"],
    ["corpus-infer", "--jobs", "1", "corpus"],
], ids=["scan", "analyze-text", "scan-facts", "corpus-infer"])
def test_utf8_inputs_read_alike_in_an_ascii_locale(tmp_path, argv):
    inputs = write_utf8_inputs(tmp_path)
    argv = [str(inputs.get(arg, arg)) for arg in argv]
    runs = [subprocess.run([sys.executable, "-m", "symvalic.cli", *argv],
                           capture_output=True, env=package_env(**extra))
            for extra in ({"PYTHONUTF8": "1"}, ASCII_LOCALE)]
    assert runs[0].returncode == 0 and runs[0].stderr == b""
    assert [(r.returncode, r.stdout, r.stderr) for r in runs] == [
        (0, runs[0].stdout, b"")] * 2


def test_a_text_report_is_utf8_whatever_stdout_encodes(tmp_path):
    source = write_utf8_inputs(tmp_path)["source"]
    proc = subprocess.run(
        [sys.executable, "-m", "symvalic.cli", "analyze", "--format", "text",
         str(source)], capture_output=True,
        env=package_env(PYTHONIOENCODING="ascii"))
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.startswith("contract Café (truncated: False)\n"
                                  .encode("utf-8"))


def run_closed(redirect: str, *argv) -> subprocess.CompletedProcess:
    """`python -m symvalic.cli argv` started by a shell that closes one
    descriptor first (`>&-` stdout, `2>&-` stderr), so that the
    interpreter starts with no such stream."""
    return subprocess.run(
        ["sh", "-c", f'exec "$0" -m symvalic.cli "$@" {redirect}',
         sys.executable, *map(str, argv)],
        capture_output=True, text=True, env=package_env())


@pytest.mark.parametrize("argv", STDOUT_CASES + [["corpus-build"]],
                         ids=["scan", "analyze", "analyze-text",
                              "corpus-build"])
def test_no_stdout_at_all_exits_2_with_one_line(tmp_path, argv):
    if argv == ["corpus-build"]:
        target = write_swap_corpus(tmp_path / "corpus", benign=1)
    else:
        target = FIXTURES / "unguarded_selfdestruct.svc"
    proc = run_closed(">&-", *argv, target)
    assert proc.returncode == 2
    assert proc.stderr == (f"<stdout>: [Errno {errno.EBADF}] "
                           f"{os.strerror(errno.EBADF)}\n")
    if argv == ["corpus-build"]:
        assert (target / "out" / "SwapUser00.result.json").is_file()


def test_no_stderr_keeps_diagnostics_out_of_the_report(tmp_path):
    corpus = write_swap_corpus(tmp_path / "corpus", benign=1)
    (corpus / "bad.svc").write_text("contract { }")
    proc = run_closed("2>&-", "corpus-build", corpus, "--jobs", "1")
    assert proc.returncode == 2
    names = [c["contract"] for c in json.loads(proc.stdout)["contracts"]]
    assert names == ["SwapTainted", "SwapUser00"]


def test_a_refused_stderr_drops_the_line_and_keeps_the_status(monkeypatch,
                                                              tmp_path):
    class RefusingStream:
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    monkeypatch.setattr(sys, "stderr", RefusingStream())
    assert main(["scan", str(tmp_path / "none.svc")]) == 2


def test_a_report_larger_than_a_pipe_reaches_a_late_reader_whole(capsys):
    argv = ["analyze", str(FIXTURES / "branchy004.svc")]
    proc = subprocess.Popen([sys.executable, "-m", "symvalic.cli", *argv],
                            stdout=subprocess.PIPE, env=package_env())
    time.sleep(0.5)  # the child fills the pipe and waits for this reader
    out = proc.stdout.read()
    proc.stdout.close()
    code, expected, _ = run_cli(capsys, *argv)
    assert len(expected) == 410_033
    assert (proc.wait(), out) == (code, expected.encode())


@pytest.mark.parametrize("argv", [
    ["scan", FIXTURES / "safe.svc"],
    ["scan", FIXTURES / "unguarded_selfdestruct.svc"],
    ["scan", FIXTURES / "none.svc"]], ids=["exit-0", "exit-1", "exit-2"])
def test_the_process_ends_with_mains_status_and_output(capsys, argv):
    argv = list(map(str, argv))
    proc = subprocess.run([sys.executable, "-m", "symvalic.cli", *argv],
                          capture_output=True, text=True, env=package_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(capsys,
                                                                  *argv)


def test_corpus_build_leaves_no_worker_behind(capsys, tmp_path):
    corpus = write_swap_corpus(tmp_path / "corpus", benign=3)
    proc = subprocess.Popen(
        [sys.executable, "-m", "symvalic.cli", "corpus-build", str(corpus),
         "--jobs", "2"],
        stdout=subprocess.PIPE, text=True, env=package_env(),
        start_new_session=True)
    out, _ = proc.communicate()
    assert proc.returncode == 0
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)  # the group of the child and its workers
    built = reports(corpus)
    shutil.rmtree(corpus / "out")
    assert run_cli(capsys, "corpus-build", str(corpus), "--jobs", "1") == (
        0, out, "")
    assert len(built) == 4 and reports(corpus) == built


def test_the_sources_leave_nothing_to_interpreter_teardown():
    # the process ends without the teardown that runs exit hooks and
    # finalizers; comments and docstrings may name them
    found = []
    for path in sorted((ROOT / "src" / "symvalic").rglob("*.py")):
        with tokenize.open(path) as source:
            for token in tokenize.generate_tokens(source.readline):
                if token.type == tokenize.NAME and token.string in {
                        "atexit", "__del__", "finalize", "Finalize"}:
                    found.append(f"{path.name}:{token.start[0]}: "
                                 f"{token.string}")
    assert found == []
    pyproject = (ROOT / "pyproject.toml").read_text()
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", pyproject,
                        re.M | re.S)
    assert re.search(r'^symvalic\s*=\s*"symvalic\.cli:run"\s*$',
                     scripts.group(1), re.M)


def test_corpus_build_reports_deep_nesting_and_goes_on(capsys, tmp_path):
    corpus = write_swap_corpus(tmp_path / "corpus", benign=1)
    (corpus / "deep.svc").write_text(DEEP)
    code, out, err = run_cli(capsys, "corpus-build", str(corpus),
                             "--jobs", "1")
    assert code == 2
    assert err.startswith(f"{corpus / 'deep.svc'}:3:")
    assert "nesting too deep" in err
    assert "Traceback" not in err
    names = [c["contract"] for c in json.loads(out)["contracts"]]
    assert names == ["SwapTainted", "SwapUser00"]
    assert (corpus / "out" / "SwapUser00.result.json").is_file()


def test_cli_import_leaves_out_the_process_pool():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, symvalic.cli; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, env=package_env())
    assert proc.returncode == 0
    assert proc.stdout == "False\n"


def chain(statements: int) -> str:
    """A contract whose value of x is 2 * statements deep: each chained
    `x = (x / 3) - to;` adds a DIV and a SUB."""
    return ("contract Chain {\n    function f(address to) public {\n"
            "        x = 1;\n" + "        x = (x / 3) - to;\n" * statements
            + "    }\n}\n")


# 1,200 statements build a value far deeper than MAX_EXPR_DEPTH: the engine
# itself fails on this contract
CHAIN = chain(1200)
DEPTH_LINE = f"expression nested deeper than {MAX_EXPR_DEPTH}"


@pytest.mark.parametrize("command", ["scan", "analyze"])
def test_engine_failure_exits_2_with_one_line(tmp_path, command):
    chain = tmp_path / "chain.svc"
    chain.write_text(CHAIN)
    proc = subprocess.run(
        [sys.executable, "-m", "symvalic.cli", command, str(chain)],
        capture_output=True, text=True, env=package_env())
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"{chain}: ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("command, jobs", [
    ("corpus-build", "1"), ("corpus-build", "2"), ("corpus-infer", "2"),
    ("corpus-scan", "2")])
def test_corpus_reports_engine_failure_and_goes_on(capsys, tmp_path,
                                                   command, jobs):
    # the anomaly needs the default 19 benign samples
    benign = 19 if command == "corpus-scan" else 1
    corpus = write_swap_corpus(tmp_path / "corpus", benign=benign)
    (corpus / "chain.svc").write_text(CHAIN)
    code, out, err = run_cli(capsys, command, str(corpus), "--jobs", jobs)
    assert code == 2
    assert err.startswith(f"{corpus / 'chain.svc'}: ")
    assert err.count("\n") == 1
    doc = json.loads(out)
    if command == "corpus-build":
        names = [c["contract"] for c in doc["contracts"]]
        assert names == ["SwapTainted", "SwapUser00"]
    elif command == "corpus-scan":
        assert [w["contract"] for w in doc["warnings"]] == ["SwapTainted"]


def test_engine_recursion_failure_reads_the_same_everywhere(capsys, tmp_path):
    # the depth bound, not the stack, ends the run: the line is the same
    # from every entry point and however many frames the caller adds
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    chain = corpus / "chain.svc"
    chain.write_text(CHAIN)
    line = f"{chain}: {DEPTH_LINE}\n"
    assert run_cli(capsys, "scan", str(chain)) == (2, "", line)
    for depth in (0, 1):
        code, _, err = nested(depth, lambda: run_cli(
            capsys, "corpus-infer", str(corpus), "--jobs", "1"))
        assert (code, err) == (2, line)
    assert refine(corpus, rounds=1).errors == {chain: line.rstrip("\n")}


@pytest.mark.parametrize("statements", [MAX_EXPR_DEPTH // 2,
                                        MAX_EXPR_DEPTH // 2 + 1],
                         ids=["at-bound", "over-bound"])
def test_depth_bound_gives_one_outcome_everywhere(capsys, tmp_path,
                                                  statements):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    source = corpus / "chain.svc"
    source.write_text(chain(statements))
    # a second contract, so that --jobs 2 runs a pool
    (corpus / "small.svc").write_text(
        "contract Small { function f() public { return 1; } }")
    over = 2 * statements > MAX_EXPR_DEPTH
    builds = []
    for argv in (["scan", source], ["analyze", source],
                 ["corpus-build", corpus, "--jobs", "1"],
                 ["corpus-build", corpus, "--jobs", "2"]):
        shutil.rmtree(corpus / "out", ignore_errors=True)  # no cache reuse
        code, out, err = run_cli(capsys, *map(str, argv))
        if over:
            assert (code, err) == (2, f"{source}: {DEPTH_LINE}\n"), argv
        else:
            assert (code, err) == (0, ""), argv
        if argv[0] == "corpus-build":
            builds.append(out)
    names = [c["contract"] for c in json.loads(builds[0])["contracts"]]
    assert names == (["Small"] if over else ["Chain", "Small"])
    assert builds[0] == builds[1]


@pytest.mark.parametrize("command, flag", [
    ("analyze", "--dep-args"), ("analyze", "--dep-storage-loads"),
    ("analyze", "--dep-tx-args"), ("analyze", "--arith-depth"),
    ("analyze", "--tx-rounds"), ("corpus-infer", "--rounds"),
    ("corpus-scan", "--rounds"), ("corpus-build", "--jobs"),
    ("corpus-infer", "--min-samples"), ("corpus-scan", "--min-samples")])
def test_count_flag_below_one_is_a_usage_error(capsys, tmp_path, command,
                                               flag):
    target = FIXTURES / "safe.svc" if command == "analyze" else tmp_path
    with pytest.raises(SystemExit) as stop:
        main([command, str(target), flag, "0"])
    assert stop.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: 0 is not >= 1" in captured.err


@pytest.mark.parametrize("flag, value", [
    ("--untainted-frac", "nan"), ("--untainted-frac", "1.5"),
    ("--untainted-frac", "-0.1"), ("--guarded-frac", "NaN"),
    ("--guarded-frac", "inf"), ("--guarded-frac", "2")])
@pytest.mark.parametrize("command", ["corpus-infer", "corpus-scan"])
def test_fraction_flag_outside_0_1_is_a_usage_error(capsys, tmp_path,
                                                    command, flag, value):
    with pytest.raises(SystemExit) as stop:
        main([command, str(tmp_path), flag, value, "--jobs", "1"])
    assert stop.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: {value} is not in [0, 1]" in captured.err
    assert not (tmp_path / "out").exists()


def test_pool_never_outnumbers_the_contracts(capsys, monkeypatch, tmp_path):
    import concurrent.futures

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    corpus = write_swap_corpus(tmp_path / "corpus", benign=2)
    code, out, _ = run_cli(capsys, "corpus-build", str(corpus),
                           "--jobs", "500")
    assert code == 0 and sizes == [3]
    assert len(json.loads(out)["contracts"]) == 3


@pytest.mark.parametrize("command", ["corpus-build", "corpus-infer",
                                     "corpus-scan"])
def test_out_that_is_a_file_exits_2_with_one_line(capsys, tmp_path, command):
    corpus = write_swap_corpus(tmp_path / "corpus", benign=2)
    (corpus / "out").write_text("")
    code, out, err = run_cli(capsys, command, str(corpus), "--jobs", "1")
    assert code == 2 and out == ""
    assert err.startswith(f"{corpus / 'out'}: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["corpus-build", "corpus-infer",
                                     "corpus-scan"])
def test_missing_corpus_exits_2_with_one_line_and_creates_nothing(
        capsys, tmp_path, command):
    missing = tmp_path / "nope"
    code, out, err = run_cli(capsys, command, str(missing), "--jobs", "1")
    assert code == 2 and out == ""
    assert err.startswith(f"{missing}: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(OSError):
        refine(missing)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_corpus_build_reports_an_unwritable_report_and_goes_on(capsys,
                                                               tmp_path, jobs):
    corpus = write_swap_corpus(tmp_path / "corpus", benign=2)
    blocked = corpus / "out" / "SwapUser00.result.json"
    blocked.mkdir(parents=True)
    # the second build takes every result from the cache
    for _ in range(2):
        code, out, err = run_cli(capsys, "corpus-build", str(corpus),
                                 "--jobs", jobs)
        assert code == 2
        assert err.startswith(f"{blocked}: ") and err.count("\n") == 1
        names = [c["contract"] for c in json.loads(out)["contracts"]]
        assert names == ["SwapTainted", "SwapUser01"]
        assert (corpus / "out" / "SwapUser01.result.json").is_file()
        # its contract stays among the results: the cache is not stale
        assert (corpus / "out" / "SwapUser00.analysis.json").is_file()
