"""The analysis cache: the expression table, full-result round trips,
fallback on every kind of bad cache, engine-run counts, determinism."""

import json
import random
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from symvalic import cli
from symvalic import corpus as corpus_mod
from symvalic.analysis_cache import cache_key, cache_path, dumps, load, write
from symvalic.clients import run_detectors
from symvalic.corpus import Thresholds, anomalies, refine_contracts, summarize
from symvalic.deps import DependencyBudget, DependencyMap
from symvalic.parser import parse
from symvalic.symexpr import (
    Const, Expr, OWNER, OWNER_UNIQUE, Sym,
    UNPRIVILEGED_USER, USER_UNIQUE, contract_symbol, normalize,
)
from symvalic.valueflow import AnalysisConfig, Inference, analyze, assemble

from conftest import FIXTURES, write_reentrancy_corpus, write_swap_corpus
from helpers import gen_arith, gen_bool, gen_oracle_contract, gen_rounds_contract
from test_cli import package_env

# every symbol the engine makes, and symbols that the cache must not take
# for an operator or mistake for bound or free
SYMS = [OWNER, UNPRIVILEGED_USER, OWNER_UNIQUE, USER_UNIQUE,
        contract_symbol("Token"), Sym("zed", False), Sym("ADD", True),
        Sym("NOT", False)]


@st.composite
def engine_exprs(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    syms = rng.sample(SYMS, rng.randint(1, len(SYMS)))
    return (gen_arith(rng, syms, 4) if rng.random() < 0.5
            else gen_bool(rng, syms, 3))


def shape(e: Expr) -> list:
    """Every node of e with its printed form and, for a symbol, `bound`."""
    return [(type(n), n.render(), getattr(n, "bound", None)) for n in e.walk()]


@pytest.fixture(scope="module")
def safe_result():
    return analyze(parse((FIXTURES / "safe.svc").read_text()))


def cached_copy(path, result):
    """The facts of result after a write and a load at path."""
    write(path, "key", result)
    return load(path, "key")


def holding(result, values):
    """result with no facts but one inference for each value, under a map
    that holds every value."""
    d = DependencyMap(tuple((f"a{i}", v) for i, v in enumerate(values)), ())
    return result._replace(
        inferences=tuple(Inference("deposit", "x", v, d) for v in values),
        reachability=(), calls=(), returns={}, storage=())


@settings(max_examples=300, deadline=None)
@given(engine_exprs())
def test_table_round_trip(tmp_path_factory, safe_result, e):
    values = [e, normalize(e)]
    facts = cached_copy(tmp_path_factory.mktemp("table") / "c.json",
                        holding(safe_result, values))
    back = [i.value for i in facts["inferences"]]
    assert back == values
    assert [shape(x) for x in back] == [shape(x) for x in values]
    assert [shape(x) for _, x in facts["inferences"][0].deps.local] == \
        [shape(x) for x in values]


@pytest.mark.parametrize("row", [
    ["FOO", 0], ["NOT", 1], ["NOT", 2], ["NOT", -1], ["NOT", 0.0],
    ["NOT", "0"], ["ADD", 0], ["ADD", 0, 0, 0], ["NOT", 0, 0], ["CONCAT", 0],
    [1.5, False], [True, False], [None, True], [[], True], ["x", 1], ["x"],
    [], "x", 0, [1 << 256, False], [-1, False], [0, 0],
    # a constant row is [value]; [value, hex_hint] was symvalic-analysis/3's
    [1.5], [True], [None], [1 << 256], [-1], [1, False],
], ids=repr)
def test_table_rejects_a_malformed_row(tmp_path, safe_result, row):
    # row 0 is the constant 1; the row under test is row 1
    result = holding(safe_result, [Const(1)])
    path = tmp_path / "c.json"
    assert cached_copy(path, result) is not None
    doc = json.loads(path.read_text())
    assert doc["exprs"] == [[1]]
    doc["exprs"].append(row)
    path.write_text(json.dumps(doc))
    assert load(path, "key") is None


def test_table_rejects_a_chain_past_the_depth_bound(tmp_path, safe_result):
    path = tmp_path / "c.json"
    write(path, "key", holding(safe_result, [Const(1)]))
    doc = json.loads(path.read_text())
    for chain in (255, 256):
        doc["exprs"] = [[1]] + [["NOT", i] for i in range(chain)]
        path.write_text(json.dumps(doc))
        assert (load(path, "key") is None) == (chain == 256)


# --- full-result round trips ---------------------------------------------------


def rendered(x):
    """x with every expression and dependency map in its printed form, and
    every dict in its order: equality of dicts ignores order, printing
    does not."""
    if isinstance(x, (Expr, DependencyMap)):
        return x.render()
    if isinstance(x, dict):
        return tuple((rendered(k), rendered(v)) for k, v in x.items())
    if isinstance(x, frozenset):
        return tuple(sorted(x))
    if isinstance(x, (tuple, list)):
        return tuple(rendered(i) for i in x)
    return x


def sample_sources(tmp_path) -> list:
    """The fixtures, two corpora that yield facts, 40 generated contracts."""
    texts = [p.read_text() for p in sorted(FIXTURES.glob("*.svc"))]
    for write_corpus in (write_swap_corpus, write_reentrancy_corpus):
        corpus = write_corpus(tmp_path / write_corpus.__name__)
        texts += [p.read_text() for p in sorted(corpus.glob("*.svc"))]
    rng = random.Random(7)
    texts += [gen_oracle_contract(rng, i)[0] for i in range(20)]
    texts += [gen_rounds_contract(rng, i) for i in range(20)]
    return texts


def test_full_result_round_trip(tmp_path):
    config = AnalysisConfig()
    pairs = []
    for text in sample_sources(tmp_path):
        contract = parse(text)
        fresh = analyze(contract, config)
        assert not fresh.truncated
        path = cache_path(tmp_path, contract.name)
        key = cache_key(text, config)
        write(path, key, fresh)
        facts = load(path, key)
        assert facts is not None, contract.name
        cached = assemble(contract, config, facts)
        for f in fresh._fields:
            assert getattr(cached, f) == getattr(fresh, f), f
        assert rendered(cached) == rendered(fresh)
        assert cached.to_json_dict() == fresh.to_json_dict()
        assert dumps(cached, key) == path.read_text()
        pairs.append((fresh, cached))
    outcome = refine_contracts({f.contract: f for f, _ in pairs}, rounds=3,
                               thresholds=Thresholds(1, 0.5, 0.5))
    facts = outcome.facts
    assert facts.sensitive_args and facts.reentrancy
    for fresh, cached in pairs:
        assert run_detectors(cached, facts) == run_detectors(fresh, facts)
        assert summarize(cached, facts) == summarize(fresh, facts)
        assert anomalies(cached, facts) == anomalies(fresh, facts)


def test_unequal_maps_that_print_alike_stay_apart(tmp_path):
    # a free and a bound zed print alike and differ
    contract = parse((FIXTURES / "safe.svc").read_text())
    config = AnalysisConfig()
    fresh = analyze(contract, config)
    path = tmp_path / "Safe.analysis.json"
    a, b = Sym("zed", False), Sym("zed", True)
    da = DependencyMap((("to", a),), ())
    db = DependencyMap((("to", b),), ())
    assert da != db and da.render() == db.render()
    result = fresh._replace(inferences=fresh.inferences + tuple(
        Inference("deposit", var, value, d)
        for var, value, d in (("a", a, da), ("b", b, db), ("c", a, da))))
    write(path, "key", result)
    cached = assemble(contract, config, load(path, "key"))
    assert cached.inferences == result.inferences
    assert rendered(cached) == rendered(result)


JUNK = (None, True, 0, -1, 1.5, "", "ADD(1", "<<owner>>", [], {}, [[]],
        ["x", "y"])


def replace_random_node(rng: random.Random, doc):
    """doc (a JSON value) with one random node replaced by junk."""
    if not isinstance(doc, (list, dict)) or not doc or rng.random() < 0.15:
        return rng.choice(JUNK)
    key = rng.choice(list(doc) if isinstance(doc, dict) else range(len(doc)))
    doc[key] = replace_random_node(rng, doc[key])
    return doc


def test_load_never_raises_on_a_damaged_cache(tmp_path):
    text = (FIXTURES / "branchy004.svc").read_text()
    config = AnalysisConfig()
    key = cache_key(text, config)
    path = tmp_path / "Branchy004.analysis.json"
    good = dumps(analyze(parse(text), config), key)
    rng = random.Random(11)
    rejected = 0
    for _ in range(300):
        doc = replace_random_node(rng, json.loads(good))
        path.write_text(json.dumps(doc))
        facts = load(path, key)  # a dict or None, never an exception
        rejected += facts is None
    assert rejected > 150


def test_truncated_result_is_not_cached(tmp_path):
    text = (FIXTURES / "safe.svc").read_text()
    config = AnalysisConfig(max_inferences=1)
    result = analyze(parse(text), config)
    assert result.truncated
    path = tmp_path / "Safe.analysis.json"
    path.write_text("an older cache")
    write(path, cache_key(text, config), result)
    assert not path.exists()


def test_key_covers_the_text_and_every_config_field():
    text = (FIXTURES / "safe.svc").read_text()
    base = cache_key(text, AnalysisConfig())
    assert base == cache_key(text, AnalysisConfig())
    assert base != cache_key(text + " ", AnalysisConfig())
    changes = {"budget": DependencyBudget(tx_args=1), "seed": 2,
               "arithmetic_depth_limit": 4, "transaction_rounds": 2,
               "max_values_per_var": 65, "max_alts_per_block": 255,
               "max_inferences": 1000, "time_budget": None}
    assert set(changes) == set(AnalysisConfig._fields)
    keys = {cache_key(text, AnalysisConfig(**{name: value}))
            for name, value in changes.items()}
    assert len(keys) == len(changes) and base not in keys


# --- the corpus commands with a cache -------------------------------------------


def run(capsys, *argv):
    code = cli.main([*argv, "--jobs", "1"])
    out, err = capsys.readouterr()
    return code, out, err


def infer_and_scan(capsys, corpus) -> dict:
    """Outputs of corpus-infer then corpus-scan, and the report bytes."""
    seen = {}
    for command in ("corpus-infer", "corpus-scan"):
        code, out, err = run(capsys, command, str(corpus))
        assert err == ""
        seen[command] = (code, out)
    for path in sorted((corpus / "out").glob("*.json")):
        if not path.name.endswith(".analysis.json"):
            seen[path.name] = path.read_bytes()
    return seen


def count_calls(monkeypatch, module, name, calls=None) -> list:
    """Count the calls of module.name into the list calls (a new one if
    None), which is returned."""
    calls = [] if calls is None else calls
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def rewrite(update):
    """A cache fault made by editing the parsed document."""
    def fault(text: str) -> str:
        doc = json.loads(text)
        update(doc)
        return json.dumps(doc)
    return fault


def append_expr_rows(rows_at):
    """A fault that appends rows_at(n) to an expression table of n rows."""
    def update(doc):
        doc["exprs"] += rows_at(len(doc["exprs"]))
    return rewrite(update)


def mark_truncated(doc):
    doc["truncated"] = True
    doc["inferences"] = []


def wrong_schema(doc):
    doc["schema"] = "symvalic-analysis/0"
    doc["inferences"] = []


def stmt_as_string(doc):
    if doc["reachability"]:
        doc["reachability"][0][1] = str(doc["reachability"][0][1])
    doc["calls"] = []


DEEP_JSON = "[" * 100_000 + "]" * 100_000

CACHE_FAULTS = {
    "invalid-json": lambda text: text[: len(text) // 2],
    "wrong-schema": rewrite(wrong_schema),
    # a row naming itself, not an earlier row; a chain of 300 NOTs over 1
    "malformed-expression": append_expr_rows(lambda n: [["NOT", n]]),
    "deep-expression": append_expr_rows(
        lambda n: [[1]] + [["NOT", n + i] for i in range(300)]),
    "deep-json": lambda text: text.replace('"deps":[', '"deps":[' + DEEP_JSON
                                           + ",", 1),
    "wrong-type": rewrite(stmt_as_string),
    "truncated": rewrite(mark_truncated),
}


def apply_fault(corpus, fault):
    for path in sorted((corpus / "out").glob("*.analysis.json")):
        path.write_text(fault(path.read_text()))


def drop_caches(corpus):
    for path in (corpus / "out").glob("*.analysis.json"):
        path.unlink()


def edit_source(corpus):
    path = corpus / "swaptainted.svc"
    path.write_text(path.read_text().replace("(tok, 5)", "(tok, 6)"))


def as_schema_3(text: str) -> str:
    """A cache document in symvalic-analysis/3's form, whose constant rows
    were [value, hex_hint], under the same key."""
    doc = json.loads(text)
    doc["schema"] = "symvalic-analysis/3"
    doc["exprs"] = [row + [False] if type(row[0]) is int else row
                    for row in doc["exprs"]]
    return json.dumps(doc)


def test_a_schema_3_cache_is_analyzed_again(capsys, monkeypatch, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    source = FIXTURES / "gated_rounds.svc"
    shutil.copy(source, corpus)
    assert run(capsys, "corpus-build", str(corpus))[0] == 0
    cache = cache_path(corpus / "out", "GatedRounds")
    key = cache_key(source.read_text(), AnalysisConfig())
    assert load(cache, key) is not None
    cache.write_text(as_schema_3(cache.read_text()))
    assert load(cache, key) is None

    calls = count_calls(monkeypatch, corpus_mod, "analyze")
    assert run(capsys, "corpus-build", str(corpus))[0] == 0
    assert len(calls) == 1
    assert load(cache, key) is not None
    fresh = analyze(parse(source.read_text())).to_json_text() + "\n"
    assert (corpus / "out" / "GatedRounds.result.json").read_text() == fresh


@pytest.fixture(scope="module")
def built_corpus(tmp_path_factory):
    """A swap corpus after corpus-build (20 contracts, one anomaly)."""
    corpus = write_swap_corpus(tmp_path_factory.mktemp("cache") / "corpus")
    assert cli.main(["corpus-build", str(corpus), "--jobs", "1"]) == 0
    return corpus


def copy_of(built_corpus, tmp_path, name):
    return shutil.copytree(built_corpus, tmp_path / name)


@pytest.mark.parametrize("fault", list(CACHE_FAULTS))
def test_bad_cache_falls_back_to_analysis(capsys, monkeypatch, tmp_path,
                                          built_corpus, fault):
    capsys.readouterr()
    reference = copy_of(built_corpus, tmp_path, "reference")
    drop_caches(reference)
    expected = infer_and_scan(capsys, reference)

    corpus = copy_of(built_corpus, tmp_path, "faulty")
    apply_fault(corpus, CACHE_FAULTS[fault])
    calls = count_calls(monkeypatch, corpus_mod, "analyze")
    assert infer_and_scan(capsys, corpus) == expected
    assert len(calls) == 2 * 20  # every contract, in infer and in scan


def test_edited_source_is_analyzed_again(capsys, monkeypatch, tmp_path,
                                         built_corpus):
    capsys.readouterr()
    reference = copy_of(built_corpus, tmp_path, "reference")
    edit_source(reference)
    drop_caches(reference)
    expected = infer_and_scan(capsys, reference)

    corpus = copy_of(built_corpus, tmp_path, "edited")
    edit_source(corpus)
    calls = count_calls(monkeypatch, corpus_mod, "analyze")
    assert infer_and_scan(capsys, corpus) == expected
    assert len(calls) == 2  # the edited contract, in infer and in scan


def test_cache_of_another_seed_is_not_used(capsys, monkeypatch, tmp_path):
    runs = {}
    for name, keep in (("reference", False), ("seeded", True)):
        corpus = write_swap_corpus(tmp_path / name)
        assert cli.main(["corpus-build", str(corpus), "--jobs", "1",
                         "--seed", "2"]) == 0
        capsys.readouterr()
        if not keep:
            drop_caches(corpus)
        calls = count_calls(monkeypatch, corpus_mod, "analyze")
        runs[name] = infer_and_scan(capsys, corpus)
        assert len(calls) == 2 * 20
    assert runs["seeded"] == runs["reference"]


def test_infer_and_scan_reuse_the_build(capsys, monkeypatch, tmp_path,
                                        built_corpus):
    """With build output present, no engine run and the same parses."""
    capsys.readouterr()
    seen = {}
    for name in ("cold", "cached"):
        corpus = copy_of(built_corpus, tmp_path, name)
        if name == "cold":
            drop_caches(corpus)
        analyses = count_calls(monkeypatch, corpus_mod, "analyze")
        parses = count_calls(monkeypatch, corpus_mod, "parse")
        counts = []
        outputs = []
        for command in ("corpus-infer", "corpus-scan"):
            before = len(analyses), len(parses)
            outputs.append(run(capsys, command, str(corpus)))
            counts.append((len(analyses) - before[0], len(parses) - before[1]))
        monkeypatch.undo()
        seen[name] = counts, outputs
    cold, cached = seen["cold"], seen["cached"]
    assert cached[1] == cold[1]
    assert cold[0] == [(20, 60), (20, 40)]
    assert cached[0] == [(0, 60), (0, 40)]


def test_cache_bytes_independent_of_jobs_and_hash_seed(tmp_path):
    outputs = []
    for jobs, hash_seed in (("1", "1"), ("2", "2"), ("1", "2")):
        corpus = write_swap_corpus(tmp_path / f"j{jobs}h{hash_seed}",
                                   benign=6)
        subprocess.run(
            [sys.executable, "-m", "symvalic.cli", "corpus-build",
             str(corpus), "--jobs", jobs], check=True, capture_output=True,
            env=package_env(PYTHONHASHSEED=hash_seed))
        caches = {p.name: p.read_bytes()
                  for p in sorted((corpus / "out").glob("*.analysis.json"))}
        assert len(caches) == 7
        assert not any(str(tmp_path).encode() in b for b in caches.values())
        outputs.append(caches)
    assert outputs[0] == outputs[1] == outputs[2]


def test_scan_and_analyze_leave_the_cache_unimported(tmp_path):
    code = ("import sys\nfrom symvalic.cli import main\n"
            f"main(['scan', {str(FIXTURES / 'safe.svc')!r}])\n"
            f"main(['analyze', {str(FIXTURES / 'safe.svc')!r}])\n"
            "for name in ('symvalic.analysis_cache', 'dataclasses', 'inspect'):\n"
            "    print(name, name in sys.modules, file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=package_env())
    assert proc.returncode == 0
    assert proc.stderr == ("symvalic.analysis_cache False\n"
                           "dataclasses False\ninspect False\n")
