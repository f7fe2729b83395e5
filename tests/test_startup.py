"""What a symvalic process loads at start-up, and the behaviour that the
start-up savings must keep: the CLI's help and usage errors, the seeded
input draws, and the records' tuple semantics across processes."""

import hashlib
import pickle
import random
import subprocess
import sys
import tokenize

import pytest

from symvalic import cli
from symvalic.analysis_cache import _package_digest
from symvalic.clients import BUILTIN_SPECS, run_detectors
from symvalic.corpus import (
    DomainFacts, GuardedFact, ReentrancyFact, SensitiveArgFact, Thresholds,
    analyze_corpus, summarize,
)
from symvalic.deps import EMPTY, Conflict, DependencyBudget, TrackingPlan
from symvalic.parser import _Value, parse, tokenize as tokenize_text
from symvalic.symexpr import Const
from symvalic.valueflow import (
    AnalysisConfig, _Alt, _Replay, _derived_rng, analyze,
)

from conftest import FIXTURES, write_reentrancy_corpus
from test_cli import ROOT, package_env

# The top-level names of the modules that `scan` and `analyze` may load
# beyond those of the bare interpreter (python -S), on CPython 3.10 to
# 3.13. hashlib and _hashlib (OpenSSL) and concurrent (the process pool)
# stay out: the corpus commands import the pool when they use it. So does
# typing: no module imports it. contextlib stays, since glob loads it on
# newer Pythons.
STARTUP_MODULES = frozenset("""
    __future__ _bisect _bz2 _collections _collections_abc _compression
    _functools _json _locale _lzma _operator _random _sha2 _sha256 _sha512
    _sre _stat argparse bisect bz2 collections contextlib copyreg
    enum errno fnmatch functools genericpath gettext glob grp ipaddress
    itertools json keyword locale lzma math ntpath operator os pathlib
    posixpath pwd random re reprlib shutil sre_compile sre_constants
    sre_parse stat symvalic types urllib warnings zlib
""".split())
NEVER_AT_STARTUP = ("hashlib", "_hashlib", "concurrent", "typing", "_typing")


@pytest.mark.parametrize("command", ["scan", "analyze"])
def test_a_command_loads_only_allowlisted_modules(command):
    # -S: a site-packages .pth hook would load modules before the child's
    # code runs, hiding them from the count
    path = str(FIXTURES / "safe.svc")
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "from symvalic.cli import main\n"
            f"main([{command!r}, {path!r}])\n"
            f"main([{command!r}, '--format', 'text', {path!r}])\n"
            "print(' '.join(sorted(set(sys.modules) - before)),"
            " file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, env=package_env())
    assert proc.returncode == 0, proc.stderr
    loaded = {name.split(".")[0] for name in proc.stderr.split()}
    assert "symvalic" in loaded
    assert loaded - STARTUP_MODULES == set()
    assert not loaded.intersection(NEVER_AT_STARTUP)


def _source_names(name):
    """`file:line` of every NAME token `name` in the package's sources;
    strings and comments are other tokens."""
    found = []
    for path in sorted((ROOT / "src" / "symvalic").rglob("*.py")):
        with tokenize.open(path) as source:
            for token in tokenize.generate_tokens(source.readline):
                if token.type == tokenize.NAME and token.string == name:
                    found.append(f"{path.name}:{token.start[0]}")
    return found


def test_no_source_declares_a_typing_namedtuple():
    # typing.NamedTuple builds a record several times slower than
    # collections.namedtuple, which every process pays at import
    assert _source_names("NamedTuple") == []


def test_no_source_imports_typing():
    # annotations are never evaluated (from __future__ import annotations),
    # so typing would be loaded only to be paid for at start-up
    assert _source_names("typing") == []


# --- the parser with only the chosen command's flags ------------------------

PARSER_CASES = [
    ["-h"], [], ["bogus"],
    *([name, "-h"] for name in cli.COMMANDS),
    *([name] for name in cli.COMMANDS),  # a usage error: no file or dir
]


def _parser_output(parse_args, argv, capsys):
    with pytest.raises(SystemExit) as stop:
        parse_args(argv)
    captured = capsys.readouterr()
    return stop.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_help_and_usage_errors_match_the_parser_of_every_flag(
        argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    full = cli.build_parser()
    assert _parser_output(cli.main, argv, capsys) == _parser_output(
        full.parse_args, argv, capsys)


def test_a_parsed_command_gets_every_flag_value(tmp_path):
    argv = ["corpus-scan", str(tmp_path), "--rounds", "2", "--jobs", "1",
            "--dep-args", "4", "--seed", "9", "--format", "text",
            "--min-samples", "3", "--guarded-frac", "0.5"]
    assert (cli.build_parser(argv).parse_args(argv)
            == cli.build_parser().parse_args(argv))


# --- hashing without hashlib ----------------------------------------------


def _reference_rng(seed, *scope):
    material = f"{seed}|" + "|".join(scope)
    digest = hashlib.sha256(material.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


@pytest.mark.parametrize("seed, scope", [
    (1, ()), (1, ("deposit", "amount")), (7, ("constructor",)),
    (-3, ("f", "", "x")), (2 ** 70, ("withdraw", "to")),
    (0, ("Café", "värde")),
])
def test_seeded_draws_equal_a_hashlib_reference(seed, scope):
    rng, want = _derived_rng(seed, *scope), _reference_rng(seed, *scope)
    assert ([rng.getrandbits(256) for _ in range(4)]
            == [want.getrandbits(256) for _ in range(4)])


def test_package_digest_equals_a_hashlib_reference():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "symvalic").glob("*.py")):
        h.update(hashlib.sha256(path.name.encode()).digest())
        h.update(hashlib.sha256(path.read_bytes()).digest())
    assert _package_digest() == h.hexdigest()


# --- records ---------------------------------------------------------------


def _record_classes() -> set:
    found = set()
    for name, module in sorted(sys.modules.items()):
        if name.startswith("symvalic.") and module is not None:
            for value in vars(module).values():
                if (isinstance(value, type) and issubclass(value, tuple)
                        and value.__module__ == name):
                    found.add(value)
    return found


# a contract with an external call, for CallSite and the summaries
CALLER = ("contract Caller {\n"
          "    function relay(address t) public {\n"
          "        call hub.notify(t);\n"
          "    }\n"
          "}\n")


def _sample_records() -> list:
    text = (FIXTURES / "safe.svc").read_text()
    contract = parse(text)
    fn = contract.functions[0]
    result = analyze(parse(CALLER), AnalysisConfig())
    summary = summarize(result)[0]
    warned = analyze(parse((FIXTURES / "unguarded_selfdestruct.svc")
                           .read_text()), AnalysisConfig())
    return [
        BUILTIN_SPECS[0], run_detectors(warned)[0],
        summary.external_calls[0], summary, Thresholds(),
        SensitiveArgFact("f", 0, 1, 9), GuardedFact("g", 9, 1),
        ReentrancyFact("h", 3), DomainFacts(),
        Conflict("x", "local", Const(1), Const(2)), DependencyBudget(),
        TrackingPlan(("a",)),
        contract.storage[0], contract.literal_uses[0],
        fn.blocks[0].statements[0], fn.blocks[0], fn, contract,
        tokenize_text(text)[0], _Value("CONST", (Const(1),)),
        result.config, result.inferences[0], result.reachability[0],
        result.calls[0], result, _Alt(EMPTY),
        _Replay([], None, (), ()),
    ]


def test_every_record_keeps_its_tuple_semantics():
    samples = _sample_records()
    assert {type(r) for r in samples} == _record_classes()
    for record in samples:
        cls = type(record)
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is cls and copy == record
        try:
            want = hash(record)
        except TypeError:  # a list or dict field
            pass
        else:
            assert hash(copy) == want
        assert tuple(record) == tuple(getattr(record, f) for f in cls._fields)
        assert type(record._replace()) is cls and record._replace() == record
        # only AnalysisResult holds a per-instance index
        has_dict = cls.__name__ == "AnalysisResult"
        assert hasattr(record, "__dict__") == has_dict


def test_defaults_are_kept():
    assert AnalysisConfig() == (DependencyBudget(3, 1, 2), 5, 3, 1, 64, 256,
                                200_000, 60.0)
    assert Thresholds() == (10, 0.9, 0.9)
    assert DomainFacts() == ((), (), ()) and TrackingPlan() == ((), (), ())
    assert _Alt(EMPTY) == (EMPTY, frozenset(), ())


@pytest.mark.parametrize("bad", [
    tuple.__new__(DependencyBudget, (0, 1, 2)),
    AnalysisConfig()._replace(max_inferences=0),
    AnalysisConfig()._replace(time_budget=float("nan")),
    Thresholds()._replace(untainted_fraction=2.0),
], ids=["budget", "config-bound", "config-deadline", "thresholds"])
def test_validators_run_when_a_record_is_unpickled(bad):
    data = pickle.dumps(bad)
    with pytest.raises(ValueError):
        pickle.loads(data)


def test_records_round_trip_through_a_pool(tmp_path):
    corpus = write_reentrancy_corpus(tmp_path / "corpus")
    config = AnalysisConfig()
    pooled, errors = analyze_corpus(corpus, config, jobs=2)
    local, _ = analyze_corpus(corpus, config, jobs=1)
    assert errors == {} and len(pooled) == 3
    assert pooled == local
    for name, result in pooled.items():
        assert type(result) is type(local[name])
        assert type(result.config.budget) is DependencyBudget
        assert result.to_json_text() == local[name].to_json_text()
        assert ({type(r) for r in result.calls + result.inferences}
                == {type(r) for r in local[name].calls
                    + local[name].inferences})
