"""The analysis cache: one engine run's facts as JSON, keyed by its inputs.

`corpus-build` writes `out/<Contract>.analysis.json` (schema
symvalic-analysis/3) beside each report, and every corpus command reads it
back instead of running the engine again: analysis results do not depend
on corpus facts, so one run serves build, infer and scan.

The key is the SHA-256 of everything a result depends on: the schema id,
the bytes of this package's .py files, the source text and every
AnalysisConfig field. A cache whose key differs is ignored, and so is one
that is unreadable, malformed, truncated or nested too deeply: the caller
then analyzes as if there were none. A truncated result is never written,
since where it stops depends on wall time.

The file is plain JSON, read without eval or pickle: the engine's facts in
engine order (stores as [function, stmt] rows), whose expressions and
dependency maps are indexes into two tables.
  exprs  each distinct expression once, children before parents, in first
         use over the records: [value, hex_hint] for a constant, [name,
         bound] for a symbol, [op, child, ...] for an operator, its
         children indexes of earlier rows. A row is what prints the
         expression and how: 0x2a and 42 get a row each, and so do a free
         and a bound symbol of one name.
  deps   each distinct dependency map as [local, transaction], each side
         its [var, expr] pairs in canonical order.
The reader rebuilds exprs in one forward pass through the node
constructors, which enforce MAX_EXPR_DEPTH.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import Optional

from .deps import DependencyMap
from .symexpr import Const, Expr, Op, Sym
from .valueflow import (
    AnalysisConfig, AnalysisResult, CallSite, Inference, ReachabilityFact,
    sha256,
)

SCHEMA_ID = "symvalic-analysis/3"
# a document is a tree built by dumps: no need to check it for cycles
_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)

# expression rows: the node class of a leaf's first field
_LEAVES = {int: Const, str: Sym}


@functools.lru_cache(maxsize=None)
def _package_digest() -> str:
    """SHA-256 over this package's source files, read once per process."""
    h = sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(sha256(path.name.encode()).digest())
        h.update(sha256(path.read_bytes()).digest())
    return h.hexdigest()


def cache_key(text: str, config: AnalysisConfig) -> str:
    fields = {**config._asdict(), "budget": config.budget._asdict()}
    material = json.dumps([SCHEMA_ID, _package_digest(), text, fields],
                          sort_keys=True)
    return sha256(material.encode()).hexdigest()


def cache_path(out_dir: Path, contract_name: str) -> Path:
    return out_dir / f"{contract_name}.analysis.json"


# ---------------------------------------------------------------------------
# writing
# ---------------------------------------------------------------------------


def dumps(result: AnalysisResult, key: str) -> str:
    """The cache document of a result. Equal expressions and maps that
    print differently (0x2a and 42) get table rows of their own."""
    exprs: dict[tuple, int] = {}  # (class, *row) -> index
    expr_ids: dict[int, int] = {}  # id of an Op node -> index
    deps: dict[tuple, int] = {}   # (local, transaction) row -> index
    dep_ids: dict[int, int] = {}

    def ref(e: Expr) -> int:
        cls = e.__class__
        if cls is Const:
            return exprs.setdefault((cls, e.value, e.hex_hint), len(exprs))
        if cls is Sym:
            return exprs.setdefault((cls, e.name, e.bound), len(exprs))
        i = expr_ids.get(id(e))
        if i is None:
            key = (cls, e.op, *map(ref, e.args))
            i = expr_ids[id(e)] = exprs.setdefault(key, len(exprs))
        return i

    def ref_deps(d: DependencyMap) -> int:
        i = dep_ids.get(id(d))
        if i is None:
            row = (tuple([(v, ref(e)) for v, e in d.local]),
                   tuple([(v, ref(e)) for v, e in d.transaction]))
            i = dep_ids[id(d)] = deps.setdefault(row, len(deps))
        return i

    def values(rows) -> list:
        return [[ref(v), ref_deps(d)] for v, d in rows]

    records = {
        "inferences": [[i.function, i.var, ref(i.value), ref_deps(i.deps)]
                       for i in result.inferences],
        "reachability": [[f.function, f.stmt, ref_deps(f.deps)]
                         for f in result.reachability],
        "calls": [[c.stmt, c.function, c.callee, c.kind,
                   values(c.target_values),
                   [values(pos) for pos in c.arg_values]]
                  for c in result.calls],
        "stores": [list(row) for row in result.stores],
        "returns": [[f, values(rows)] for f, rows in result.returns.items()],
        "storage": [[ref(a), ref(v), depth] for a, v, depth in result.storage],
        "truncated": result.truncated,
        "notes": list(result.notes),
    }
    doc = {"schema": SCHEMA_ID, "key": key,
           "exprs": [row[1:] for row in exprs], "deps": list(deps), **records}
    return _ENCODER.encode(doc) + "\n"


def write(path: Path, key: str, result: AnalysisResult):
    """Cache an untruncated result at path; remove any older cache there
    for a truncated one."""
    if result.truncated:
        path.unlink(missing_ok=True)
    else:
        path.write_text(dumps(result, key), encoding="utf-8")


# ---------------------------------------------------------------------------
# reading
# ---------------------------------------------------------------------------


def load(path: Path, key: str) -> Optional[dict]:
    """The engine facts cached at path (AnalysisResult fields, as
    valueflow.assemble takes them), or None unless path holds a well-formed
    untruncated cache with this key."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        if (type(doc) is not dict or doc.get("schema") != SCHEMA_ID
                or doc.get("key") != key):
            return None
        return _facts(doc)
    except (OSError, LookupError, ValueError, RecursionError):
        return None


def _facts(doc: dict) -> dict:
    """Raises ValueError (or LookupError) on any shape mismatch."""
    if doc["truncated"] is not False:
        raise ValueError("truncated result")
    exprs = _expr_table(doc["exprs"])
    maps = [_read_deps(x, exprs) for x in _list(doc["deps"])]

    def values(rows) -> tuple:
        return tuple((_at(exprs, v), _at(maps, d)) for v, d in _rows(rows, 2))

    # inferences and reachability facts are most of a cache: their rows are
    # checked inline
    inferences = []
    for fn, var, value, d in _rows(doc["inferences"], 4):
        if (type(fn) is not str or type(var) is not str or type(value)
                is not int or type(d) is not int or value < 0 or d < 0):
            raise ValueError("malformed inference")
        inferences.append(Inference(fn, var, exprs[value], maps[d]))
    reachability = []
    for fn, stmt, d in _rows(doc["reachability"], 3):
        if (type(fn) is not str or type(stmt) is not int
                or type(d) is not int or d < 0):
            raise ValueError("malformed reachability fact")
        reachability.append(ReachabilityFact(fn, stmt, maps[d]))
    return dict(
        inferences=tuple(inferences),
        reachability=tuple(reachability),
        calls=tuple(
            CallSite(_typed(stmt, int), _typed(fn, str), _typed(callee, str),
                     _typed(kind, str), values(target),
                     tuple(values(pos) for pos in _list(args)))
            for stmt, fn, callee, kind, target, args
            in _rows(doc["calls"], 6)),
        stores=tuple((_typed(fn, str), _typed(stmt, int))
                     for fn, stmt in _rows(doc["stores"], 2)),
        returns={_typed(fname, str): values(rows)
                 for fname, rows in _rows(doc["returns"], 2)},
        storage=tuple((_at(exprs, a), _at(exprs, v), _typed(depth, int))
                      for a, v, depth in _rows(doc["storage"], 3)),
        truncated=False,
        notes=tuple(_typed(note, str) for note in _list(doc["notes"])),
    )


def _expr_table(rows) -> list:
    """The expressions of the table rows, each built from earlier ones by
    its node's constructor, which rejects a constant out of range, an
    unknown operator, a wrong operand count and a tree deeper than
    MAX_EXPR_DEPTH."""
    table: list[Expr] = []
    for row in _list(rows):
        if type(row) is not list or len(row) < 2:
            raise ValueError("expected an expression row")
        head = row[0]
        if len(row) == 2 and type(row[1]) is bool:
            table.append(_LEAVES[type(head)](head, row[1]))
            continue
        if type(head) is not str:
            raise ValueError("expected an operator name")
        table.append(Op(head, *[_at(table, i) for i in row[1:]]))
    return table


def _read_deps(x, exprs: list) -> DependencyMap:
    if type(x) is not list or len(x) != 2:
        raise ValueError("expected [local, transaction]")
    return DependencyMap(_read_side(x[0], exprs), _read_side(x[1], exprs))


def _read_side(pairs, exprs: list) -> tuple:
    """[var, expression index] pairs, the vars strictly ascending."""
    out: list = []
    for pair in _list(pairs):
        if (type(pair) is not list or len(pair) != 2
                or type(pair[0]) is not str or type(pair[1]) is not int
                or pair[1] < 0 or out and not out[-1][0] < pair[0]):
            raise ValueError("malformed or unordered dependency map")
        out.append((pair[0], exprs[pair[1]]))
    return tuple(out)


def _at(table: list, i):
    """table[i]; an index past the end, as of an operand that is not an
    earlier row, is an IndexError."""
    if type(i) is not int or i < 0:
        raise ValueError("expected an index")
    return table[i]


def _list(x) -> list:
    if type(x) is not list:
        raise ValueError("expected a list")
    return x


def _rows(x, width: int) -> list:
    """x, a list of rows that are lists of `width` items each."""
    for row in _list(x):
        if type(row) is not list or len(row) != width:
            raise ValueError(f"expected a row of {width}")
    return x


def _typed(x, kind: type):
    if type(x) is not kind:
        raise ValueError(f"expected {kind.__name__}")
    return x
