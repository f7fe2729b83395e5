"""Interned values: one object per expression, dependency map and engine
value, so equality is identity and hashes follow memory addresses. No
output may depend on where the values happen to lie in memory."""

import copy
import pickle
import subprocess
import sys

from symvalic.deps import DependencyMap, combine
from symvalic.parser import parse
from symvalic.symexpr import (
    OWNER, USER_UNIQUE, Const, Op, Sym, expr_key, free_syms,
)
from symvalic.valueflow import (
    _Engine, _Val, AnalysisConfig, _conjunction, analyze,
)

from conftest import FIXTURES
from test_cli import package_env

FIXTURE_PATHS = sorted(str(p) for p in FIXTURES.glob("*.svc"))

# Allocates and keeps objects of many sizes, and interns constants and
# symbols in an order of its own, before it runs `analyze` and `scan` on
# each path: with a spread other than 0 every value an analysis builds lies
# at another address, so a set of values iterates in another order.
LAYOUT = """
import sys
spread = int(sys.argv[1])
keep = [bytearray(i % 251) for i in range(spread * 40)]
from symvalic.symexpr import Const, Sym
keep += [Const(v) for v in range(spread, 0, -1)]
keep += [Sym(f"v{i}", i % 2 == 0) for i in range(spread, 0, -1)]
keep += [bytearray(i % 97) for i in range(spread * 10)]
from symvalic.cli import main
for path in sys.argv[2:]:
    for command in ("analyze", "scan"):
        print(command, path, flush=True)
        print(main([command, path]), flush=True)
"""


def layout_outputs(spread: int) -> bytes:
    proc = subprocess.run(
        [sys.executable, "-c", LAYOUT, str(spread), *FIXTURE_PATHS],
        capture_output=True, check=True, env=package_env(), timeout=300)
    return proc.stdout


def test_every_fixture_prints_alike_whatever_the_heap_layout():
    plain = layout_outputs(0)
    assert plain.count(b"analyze ") == len(FIXTURE_PATHS) > 5
    for spread in (1500, 4000):
        assert layout_outputs(spread) == plain


def test_values_built_apart_are_one_object():
    x = Sym("x", False)
    assert Const(7) is Const(7) and Sym("x", False) is x
    assert Sym("x", True) is not x
    assert Op("ADD", x, Const(7)) is Op("ADD", Sym("x", False), Const(7))
    d = DependencyMap((("to", USER_UNIQUE),), (("sender", OWNER),))
    assert DependencyMap((("to", USER_UNIQUE),), (("sender", OWNER),)) is d
    assert DependencyMap.of(local={"to": USER_UNIQUE},
                            transaction={"sender": OWNER}) is d
    for value in (x, Op("SHA3", Op("CONCAT", x, Const(2**70))), d):
        assert pickle.loads(pickle.dumps(value)) is value
        assert copy.deepcopy(value) is value


def test_combine_of_one_pair_is_one_map():
    a = DependencyMap((("a", Const(1)),), ())
    b = DependencyMap((("b", Const(2)),), ())
    assert combine(a, b) is combine(a, b) is DependencyMap(
        (("a", Const(1)), ("b", Const(2))), ())


def test_engine_values_live_and_die_with_one_run():
    contract = parse((FIXTURES / "safe.svc").read_text())
    engine = _Engine(contract, AnalysisConfig(), None)
    table = _Val.table
    engine.run()
    assert _Val.table is not table and not _Val.table
    assert engine.combine_memo  # the memo belongs to the engine alone
    v = _Val(OWNER, DependencyMap(), 3)
    assert _Val(OWNER, DependencyMap(), 3) is v
    assert _Val(OWNER, DependencyMap(), 2) is not v


def test_return_values_come_in_canonical_order():
    result = analyze(parse((FIXTURES / "whichpaths.svc").read_text()))
    values = result.return_values("whichPaths")
    assert len(values) > 1
    assert list(values) == sorted(set(values), key=expr_key)


# Twelve free symbols, made in reverse expr_key order: they lie in memory in
# an order of their own, so a set of them (or of terms over them) iterates
# in neither their order nor the reverse.
REVERSED = [Sym(f"order{i:02d}", False) for i in range(12, 0, -1)]


def test_free_symbols_come_in_canonical_order():
    e = REVERSED[0]
    for sym in REVERSED[1:]:
        e = Op("ADD", e, Op("MUL", sym, Const(3)))
    assert free_syms(Op("EQ", e, OWNER)) == tuple(
        sorted(REVERSED, key=expr_key))


def test_a_path_condition_folds_in_canonical_order():
    terms = [Op("LT", sym, Const(i)) for i, sym in enumerate(REVERSED)]
    want = None
    for term in sorted(terms, key=expr_key):
        want = term if want is None else Op("AND", want, term)
    for order in (terms, terms[::-1]):
        assert _conjunction(frozenset(order)) is want
