"""Dependency maps attached to inferences and statements.

An inference "variable v may hold value e" is qualified by two sets of
variable->value mappings: local dependencies (reset per function) and
transaction dependencies (persist for the whole simulated call). Combining
two maps is a compatibility check: the same variable mapped to two
different normalized values is a Conflict, otherwise combination is the
pairwise union.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Mapping, Optional, Tuple, Union

from .symexpr import (
    ADDRESS_BOUND, Const, Expr, ExprLike, Hashed, Sym, as_expr, normalize,
)

SENDER_KEY = "sender"

Entry = Tuple[str, Expr]


def _freeze(entries: Union[Mapping[str, ExprLike], Iterable[Tuple[str, ExprLike]], None],
            scope: str) -> Tuple[Entry, ...]:
    if not entries:
        return ()
    items = entries.items() if isinstance(entries, Mapping) else entries
    out: dict[str, Expr] = {}
    for var, value in items:
        e = normalize(as_expr(value))
        prev = out.get(var)
        if prev is not None and prev != e:
            raise ValueError(f"ill-formed {scope} map: {var} -> {prev} and {e}")
        out[var] = e
    return tuple(sorted(out.items()))


class DependencyMap(Hashed):
    """Paired local/transaction variable->value mappings, canonically sorted.
    Immutable, with its hash stored when built (see symexpr.Hashed)."""

    __slots__ = ("local", "transaction", "_hash")

    def __init__(self, local: Tuple[Entry, ...] = (),
                 transaction: Tuple[Entry, ...] = ()):
        self.local = local
        self.transaction = transaction
        self._hash = hash((local, transaction))

    __hash__ = Hashed.__hash__

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not DependencyMap:
            return NotImplemented
        return (self._hash == other._hash and self.local == other.local
                and self.transaction == other.transaction)

    def __reduce__(self):
        return DependencyMap, (self.local, self.transaction)

    def __repr__(self) -> str:
        return (f"DependencyMap(local={self.local!r}, "
                f"transaction={self.transaction!r})")

    @staticmethod
    def of(local=None, transaction=None) -> "DependencyMap":
        tx = _freeze(transaction, "transaction")
        for var, value in tx:
            if var == SENDER_KEY and not _address_typed(value):
                raise ValueError(f"sender must map to an address-typed value: {value}")
        return DependencyMap(_freeze(local, "local"), tx)

    @property
    def local_map(self) -> dict[str, Expr]:
        return dict(self.local)

    @property
    def transaction_map(self) -> dict[str, Expr]:
        return dict(self.transaction)

    def sender(self) -> Optional[Expr]:
        for var, value in self.transaction:
            if var == SENDER_KEY:
                return value
        return None

    def render(self) -> str:
        return f"<{_render_side(self.local)} ; {_render_side(self.transaction)}>"

    def __str__(self) -> str:
        return self.render()


def _render_side(entries: Tuple[Entry, ...]) -> str:
    inner = ", ".join(f"{var} -> {value.render()}" for var, value in entries)
    return "{" + inner + "}"


def _address_typed(e: Expr) -> bool:
    if isinstance(e, Const):
        return e.value < ADDRESS_BOUND
    return isinstance(e, Sym)


EMPTY = DependencyMap()


class Conflict(namedtuple("Conflict", "variable scope left right")):
    """Incompatible mappings, left and right, for one variable of scope
    "local" or "transaction". A normal result, not an error."""

    __slots__ = ()

    def render(self) -> str:
        return (f"Conflict({self.variable}: {self.left.render()} "
                f"vs {self.right.render()} [{self.scope}])")

    def __str__(self) -> str:
        return self.render()


CombineResult = Union[DependencyMap, Conflict]


def _merge_side(a: Tuple[Entry, ...], b: Tuple[Entry, ...], scope: str):
    """Sorted merge of two canonical entry tuples. A variable on both sides
    keeps a's value; the first clash in b's order is the Conflict. a itself
    when b adds no variable."""
    if not b:
        return a
    if not a:
        return b
    merged = []
    added = False
    i, n = 0, len(a)
    for var, value in b:
        while i < n and a[i][0] < var:
            merged.append(a[i])
            i += 1
        if i < n and a[i][0] == var:
            if a[i][1] != value:
                return Conflict(var, scope, a[i][1], value)
            merged.append(a[i])
            i += 1
        else:
            merged.append((var, value))
            added = True
    if not added:
        return a
    merged.extend(a[i:])
    return tuple(merged)


def combine(a: DependencyMap, b: DependencyMap) -> CombineResult:
    """Compatibility-checked union (the paper's (+) operator).

    Values are compared by structural equality of their normalized forms;
    the first clashing variable is reported.
    """
    local = _merge_side(a.local, b.local, "local")
    if isinstance(local, Conflict):
        return local
    tx = _merge_side(a.transaction, b.transaction, "transaction")
    if isinstance(tx, Conflict):
        return tx
    if local is a.local and tx is a.transaction:
        return a
    if local is b.local and tx is b.transaction:
        return b
    return DependencyMap(local, tx)


class DependencyBudget(namedtuple("DependencyBudget",
                                  "local_args storage_loads tx_args",
                                  defaults=(3, 1, 2))):
    """The four precision bounds. Defaults follow the analysis presets:
    3 tracked function arguments, 1 storage-load variable, 2 transaction
    entry-point arguments; the sender is always tracked. Raises ValueError
    on a bound below 1; _replace would skip that check."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.local_args < 1 or self.storage_loads < 1 or self.tx_args < 1:
            raise ValueError("dependency budget bounds must be >= 1")
        return self


DEFAULT_BUDGET = DependencyBudget()


class TrackingPlan(namedtuple(
        "TrackingPlan", "arg_order storage_load_order tx_arg_order",
        defaults=((), (), ()))):
    """Which variable names are eligible for dependency tracking, in order,
    each field a tuple of names.

    arg_order: the current function's parameters by position;
    storage_load_order: variables receiving storage loads, first-load first;
    tx_arg_order: qualified entry-point argument keys ("fn.param").
    """

    __slots__ = ()

    def tracked_locals(self, budget: DependencyBudget) -> frozenset:
        return frozenset(self.arg_order[: budget.local_args]) | frozenset(
            self.storage_load_order[: budget.storage_loads]
        )

    def tracked_tx(self, budget: DependencyBudget) -> frozenset:
        return frozenset(self.tx_arg_order[: budget.tx_args]) | {SENDER_KEY}


def restrict(d: DependencyMap, budget: DependencyBudget,
             plan: TrackingPlan) -> DependencyMap:
    """Drop mappings beyond the budget. Keeps tracked arguments (lowest
    positions first), then tracked storage-load variables; transaction
    mappings keep the sender and tracked entry-point arguments."""
    keep_local = plan.tracked_locals(budget)
    keep_tx = plan.tracked_tx(budget)
    return DependencyMap(
        tuple((v, e) for v, e in d.local if v in keep_local),
        tuple((v, e) for v, e in d.transaction if v in keep_tx),
    )
