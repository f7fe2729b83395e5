"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` (or -s for the PASS lines).
Every tolerance and time bound is pinned here; randomized criteria use
fixed seeds so the suite is deterministic.
"""

import json
import random
import subprocess
import sys
import time

import pytest

from symvalic.clients import (
    UNGUARDED_SENSITIVE, detect_unguarded_sensitive, run_detectors,
)
from symvalic.corpus import anomalies, refine
from symvalic.deps import Conflict, DependencyMap, EMPTY, combine
from symvalic.parser import parse
from symvalic.symexpr import (
    Const, OWNER, Op, Sym, TRUE, eval_concrete, free_syms, implies,
    normalize, substitute, value_for_var,
)
from symvalic.valueflow import AnalysisConfig, analyze

from conftest import (
    write_benign_corpus, write_reentrancy_corpus, write_swap_corpus,
)
from helpers import (
    Reverted, gen_arith, gen_assignment, gen_bool, gen_oracle_contract,
    run_concrete, some_syms,
)


class Stopwatch:
    def __init__(self, budget: float, label: str):
        self.budget = budget
        self.label = label

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, *_):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert elapsed < self.budget, (
                f"{self.label}: {elapsed:.1f}s exceeds {self.budget}s budget")
            print(f"ACCEPTANCE {self.label}: PASS ({elapsed:.2f}s)")
        return False


def test_criterion_01_whichpaths_fidelity(whichpaths_contract):
    with Stopwatch(1.0, "1 whichPaths fidelity"):
        r = analyze(whichpaths_contract)
        values = {v.value for v in r.return_values("whichPaths")}
        assert values == {3, 9, 16}
        assert 4 not in values


def test_criterion_02_safe_contract_fidelity(safe_contract):
    with Stopwatch(1.0, "2 Safe-contract fidelity"):
        r = analyze(safe_contract, AnalysisConfig(transaction_rounds=1),
                    entry_seeds={
                        ("deposit", "to"): [Const(0x42)],
                        ("deposit", "amount"): [200],
                    })
        infs = r.var_may_be("nextBalance")
        by_value = {i.value.value: i.deps for i in infs}
        assert set(by_value) == {181, 260}
        d181 = DependencyMap.of(
            {"to": Const(0x42), "amount": Const(200), "curBalance": Const(1)},
            {"sender": OWNER})
        d260 = DependencyMap.of(
            {"to": Const(0x42), "amount": Const(200), "curBalance": Const(80)},
            {"sender": OWNER})
        assert by_value[181] == d181
        assert by_value[260] == d260
        clash = combine(by_value[181], by_value[260])
        assert isinstance(clash, Conflict) and clash.variable == "curBalance"


def test_criterion_03_guard_discrimination(guarded_contract,
                                           unguarded_contract):
    with Stopwatch(2.0, "3 guard discrimination"):
        for contract, expected in ((guarded_contract, 0),
                                   (unguarded_contract, 1)):
            start = time.monotonic()
            warnings = [w for w in detect_unguarded_sensitive(analyze(contract))
                        if w.kind == UNGUARDED_SENSITIVE]
            assert time.monotonic() - start < 1.0  # < 1 s each
            assert len(warnings) == expected


def test_criterion_04_oracle_equivalence():
    with Stopwatch(30.0, "4 oracle equivalence"):
        rng = random.Random(0xACCE55)
        for index in range(24):
            src, fn, params = gen_oracle_contract(rng, index)
            contract = parse(src)
            seed_values = {
                p: sorted(set(rng.sample(range(12), rng.randint(2, 4))))
                for p in params
            }
            overrides = {(fn, p): [Const(v) for v in vals]
                         for p, vals in seed_values.items()}
            r = analyze(contract, AnalysisConfig(transaction_rounds=1),
                        entry_seeds=overrides)
            engine_values = {v.value for v, _ in r.returns.get(fn, ())}

            expected = set()
            names = sorted(seed_values)

            def enumerate_runs(i, env):
                if i == len(names):
                    try:
                        out, _ = run_concrete(contract, fn, dict(env))
                    except Reverted:
                        return
                    if out is not None:
                        expected.add(out)
                    return
                for v in seed_values[names[i]]:
                    env[names[i]] = v
                    enumerate_runs(i + 1, env)

            enumerate_runs(0, {})
            assert engine_values == expected, f"fixture {index}:\n{src}"


def test_criterion_05_reasoner_properties():
    with Stopwatch(60.0, "5 reasoner properties (4 x 10,000)"):
        rng = random.Random(0x5EED)

        for _ in range(10_000):  # normalize idempotence
            e = gen_arith(rng, some_syms(rng), 3)
            n = normalize(e)
            assert normalize(n) == n

        for _ in range(10_000):  # semantic preservation
            e = gen_arith(rng, some_syms(rng), 3)
            n = normalize(e)
            for _ in range(2):
                a = gen_assignment(rng, e)
                assert eval_concrete(e, a) == eval_concrete(n, a)

        checked_true = 0
        for i in range(10_000):  # implies soundness spot-checks
            syms = some_syms(rng)
            strong = gen_bool(rng, syms, 2)
            if i % 4:
                weak = gen_bool(rng, syms, 2)
            else:
                # bias towards provable pairs: weaken a conjunction
                weak = strong
                strong = Op("AND", strong, gen_bool(rng, syms, 1))
            if implies(strong, weak):
                checked_true += 1
                conj = Op("AND", strong, weak)
                bound, free = [], []
                for node in set(conj.walk()):
                    if isinstance(node, Sym):
                        (bound if node.bound else free).append(node.name)
                for k in range(1000):
                    bits = 16 if k & 3 else 256
                    a = {name: rng.getrandbits(bits) for name in free}
                    taken = set()
                    for name in bound:  # distinct bound identities
                        v = rng.getrandbits(bits)
                        while v in taken:
                            v = rng.getrandbits(16)
                        taken.add(v)
                        a[name] = v
                    if eval_concrete(strong, a) == 1:
                        assert eval_concrete(weak, a) == 1, (
                            strong.render(), weak.render(), a)
        assert checked_true > 1000  # the spot-check actually exercised truths

        for _ in range(10_000):  # value_for_var soundness
            x = Sym("x", False)
            c = gen_bool(rng, [x, Sym("y", False)], 2)
            for sym in free_syms(c):
                for cand in value_for_var(sym, c):
                    n = normalize(substitute(normalize(c), {sym: cand}))
                    assert n == TRUE


def test_criterion_06_dependency_algebra():
    with Stopwatch(10.0, "6 dependency algebra (5 x 1,000)"):
        rng = random.Random(0xA19EB7A)
        values = (Const(0), Const(1), Const(2), OWNER,
                  Sym("<<unprivileged-user>>", True))
        names = ("a", "b", "c")

        def rand_map():
            local = {v: rng.choice(values) for v in names
                     if rng.random() < 0.6}
            tx = ({"sender": rng.choice((OWNER,
                                         Sym("<<unprivileged-user>>", True)))}
                  if rng.random() < 0.5 else None)
            return DependencyMap.of(local, tx)

        for _ in range(1000):  # commutativity
            a, b = rand_map(), rand_map()
            ab, ba = combine(a, b), combine(b, a)
            if isinstance(ab, Conflict):
                assert isinstance(ba, Conflict)
            else:
                assert ab == ba

        for _ in range(1000):  # associativity
            a, b, c = rand_map(), rand_map(), rand_map()
            left = combine(a, b)
            lhs = left if isinstance(left, Conflict) else combine(left, c)
            right = combine(b, c)
            rhs = right if isinstance(right, Conflict) else combine(a, right)
            if isinstance(lhs, Conflict) or isinstance(rhs, Conflict):
                assert isinstance(lhs, Conflict) and isinstance(rhs, Conflict)
            else:
                assert lhs == rhs

        for _ in range(1000):  # identity
            d = rand_map()
            assert combine(EMPTY, d) == d and combine(d, EMPTY) == d

        for _ in range(1000):  # idempotence
            d = rand_map()
            assert combine(d, d) == d

        for _ in range(1000):  # conflict absorption
            a, b = rand_map(), rand_map()
            if isinstance(combine(a, b), Conflict):
                c = rand_map()
                pre = combine(c, a)
                if not isinstance(pre, Conflict):
                    assert isinstance(combine(pre, b), Conflict)
                post = combine(b, c)
                if not isinstance(post, Conflict):
                    assert isinstance(combine(a, post), Conflict)


def test_criterion_07_corpus_anomaly(tmp_path):
    with Stopwatch(30.0, "7 corpus anomaly"):
        corpus = write_swap_corpus(tmp_path / "swap")
        proc = subprocess.run(
            [sys.executable, "-m", "symvalic.cli", "corpus-scan", str(corpus),
             "--jobs", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 1, proc.stderr
        doc = json.loads(proc.stdout)
        assert len(doc["warnings"]) == 1
        w = doc["warnings"][0]
        assert w["kind"] == "CORPUS_ANOMALY"
        assert w["contract"] == "SwapTainted"
        assert "0.95" in w["explanation"]
        assert "20" in w["explanation"]


def test_criterion_08_transitive_reentrancy(tmp_path):
    with Stopwatch(30.0, "8 transitive reentrancy"):
        corpus = write_reentrancy_corpus(tmp_path / "reent")
        outcome = refine(corpus, rounds=3)
        assert outcome.stable_after == 2
        assert sorted(outcome.facts.reentrancy_allowing) == ["notify", "relay"]
        flagged = []
        from symvalic.clients import detect_reentrancy
        for name in sorted(outcome.results):
            flagged.extend(detect_reentrancy(outcome.results[name],
                                             outcome.facts))
        assert len(flagged) == 1
        assert flagged[0].contract == "Victim"
        assert flagged[0].function == "withdraw"


def test_criterion_09_benign_suite_zero_warnings(tmp_path):
    with Stopwatch(60.0, "9 benign suite zero warnings"):
        corpus = write_benign_corpus(tmp_path / "benign", count=50)
        outcome = refine(corpus, rounds=3)
        assert not outcome.errors
        total = []
        for name in sorted(outcome.results):
            result = outcome.results[name]
            total.extend(run_detectors(result, outcome.facts))
            total.extend(anomalies(result, outcome.facts))
        assert total == []


def test_criterion_10_determinism(tmp_path):
    with Stopwatch(60.0, "10 determinism"):
        def one_run(n):
            corpus = write_swap_corpus(tmp_path / f"run{n}")
            artifacts = {}
            for cmd in (("corpus-build",), ("corpus-infer", "--rounds", "3"),
                        ("corpus-scan",)):
                proc = subprocess.run(
                    [sys.executable, "-m", "symvalic.cli", cmd[0],
                     str(corpus), "--seed", "42", "--jobs", "1", *cmd[1:]],
                    capture_output=True, text=True)
                artifacts[f"stdout:{cmd[0]}"] = proc.stdout
            for path in sorted((corpus / "out").glob("*.json")):
                artifacts[path.name] = path.read_text()
            return artifacts

        first = one_run(1)
        second = one_run(2)
        assert set(first) == set(second)
        for key in first:
            assert first[key] == second[key], f"artifact differs: {key}"
