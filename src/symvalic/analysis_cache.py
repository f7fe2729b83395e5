"""The analysis cache: one engine run's facts as JSON, keyed by its inputs.

`corpus-build` writes `out/<Contract>.analysis.json` (schema
symvalic-analysis/2) beside each report, and every corpus command reads it
back instead of running the engine again: analysis results do not depend
on corpus facts, so one run serves build, infer and scan.

The key is the SHA-256 of everything a result depends on: the schema id,
the bytes of this package's .py files, the source text and every
AnalysisConfig field. A cache whose key differs is ignored, and so is one
that is unreadable, malformed, truncated or nested too deeply: the caller
then analyzes as if there were none. A truncated result is never written,
since where it stops depends on wall time. The file is plain JSON, read
without eval or pickle: the engine's facts in engine order (stores as
[function, stmt] rows), every expression as its render() text (read back
by symexpr.read_expr), and a table of the distinct dependency maps, each
as ordered [var, value] pairs, that rows refer to by index.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path
from typing import Optional

from .deps import DependencyMap
from .symexpr import Expr, read_expr
from .valueflow import (
    AnalysisConfig, AnalysisResult, CallSite, Inference, ReachabilityFact,
)

SCHEMA_ID = "symvalic-analysis/2"


@functools.lru_cache(maxsize=None)
def _package_digest() -> str:
    """SHA-256 over this package's source files, read once per process."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(hashlib.sha256(path.name.encode()).digest())
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def cache_key(text: str, config: AnalysisConfig) -> str:
    fields = {**config._asdict(), "budget": config.budget._asdict()}
    material = json.dumps([SCHEMA_ID, _package_digest(), text, fields],
                          sort_keys=True)
    return hashlib.sha256(material.encode()).hexdigest()


def cache_path(out_dir: Path, contract_name: str) -> Path:
    return out_dir / f"{contract_name}.analysis.json"


# ---------------------------------------------------------------------------
# writing
# ---------------------------------------------------------------------------


def dumps(result: AnalysisResult, key: str) -> str:
    """The cache document of a result. Rows name a dependency map by its
    index in the document's table of distinct printed maps: maps that are
    equal but print differently (0x2a and 42) get entries of their own."""
    table: dict[tuple, int] = {}  # printed map -> index
    by_id: dict[int, int] = {}    # id of a map in result -> index

    def ref(d: DependencyMap) -> int:
        i = by_id.get(id(d))
        if i is None:
            form = (tuple((v, e.render()) for v, e in d.local),
                    tuple((v, e.render()) for v, e in d.transaction))
            i = by_id[id(d)] = table.setdefault(form, len(table))
        return i

    def values(rows) -> list:
        return [[v.render(), ref(d)] for v, d in rows]

    doc = {
        "schema": SCHEMA_ID,
        "key": key,
        "inferences": [[i.function, i.var, i.value.render(), ref(i.deps)]
                       for i in result.inferences],
        "reachability": [[f.function, f.stmt, ref(f.deps)]
                         for f in result.reachability],
        "calls": [[c.stmt, c.function, c.callee, c.kind,
                   values(c.target_values),
                   [values(pos) for pos in c.arg_values]]
                  for c in result.calls],
        "stores": [list(row) for row in result.stores],
        "returns": [[f, values(rows)] for f, rows in result.returns.items()],
        "storage": [[a.render(), v.render(), depth]
                    for a, v, depth in result.storage],
        "truncated": result.truncated,
        "notes": list(result.notes),
    }
    doc["deps"] = list(table)
    return json.dumps(doc, separators=(",", ":")) + "\n"


def write(path: Path, key: str, result: AnalysisResult):
    """Cache an untruncated result at path; remove any older cache there
    for a truncated one."""
    if result.truncated:
        path.unlink(missing_ok=True)
    else:
        path.write_text(dumps(result, key))


# ---------------------------------------------------------------------------
# reading
# ---------------------------------------------------------------------------


def load(path: Path, key: str) -> Optional[dict]:
    """The engine facts cached at path (AnalysisResult fields, as
    valueflow.assemble takes them), or None unless path holds a well-formed
    untruncated cache with this key."""
    try:
        doc = json.loads(path.read_text())
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
    table = [_read_deps(x) for x in _list(doc["deps"])]

    def deps(i) -> DependencyMap:
        if type(i) is not int or i < 0:
            raise ValueError("expected a dependency map index")
        return table[i]

    def values(rows) -> tuple:
        return tuple((_expr(v), deps(d)) for v, d in _rows(rows, 2))

    returns = {}
    for fname, rows in _rows(doc["returns"], 2):
        returns[_str(fname)] = values(rows)
    return dict(
        inferences=tuple(
            Inference(_str(fn), _str(var), _expr(value), deps(d))
            for fn, var, value, d in _rows(doc["inferences"], 4)),
        reachability=tuple(
            ReachabilityFact(_str(fn), _int(stmt), deps(d))
            for fn, stmt, d in _rows(doc["reachability"], 3)),
        calls=tuple(
            CallSite(_int(stmt), _str(fn), _str(callee), _str(kind),
                     values(target), tuple(values(pos) for pos in _list(args)))
            for stmt, fn, callee, kind, target, args
            in _rows(doc["calls"], 6)),
        stores=tuple((_str(fn), _int(stmt))
                     for fn, stmt in _rows(doc["stores"], 2)),
        returns=returns,
        storage=tuple((_expr(a), _expr(v), _int(depth))
                      for a, v, depth in _rows(doc["storage"], 3)),
        truncated=False,
        notes=tuple(_str(note) for note in _list(doc["notes"])),
    )


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


def _str(x) -> str:
    if type(x) is not str:
        raise ValueError("expected a string")
    return x


def _int(x) -> int:
    if type(x) is not int:
        raise ValueError("expected an integer")
    return x


def _expr(x) -> Expr:
    return read_expr(_str(x))


def _read_side(pairs) -> tuple:
    out = tuple((_str(var), _expr(value)) for var, value in _rows(pairs, 2))
    for (a, _), (b, _) in zip(out, out[1:]):
        if not a < b:
            raise ValueError("dependency map not in canonical order")
    return out


def _read_deps(x) -> DependencyMap:
    if type(x) is not list or len(x) != 2:
        raise ValueError("expected [local, transaction]")
    return DependencyMap(_read_side(x[0]), _read_side(x[1]))
