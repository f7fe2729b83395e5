"""Contract intermediate language: storage layout, functions, three-address
statements, and basic-block control flow.

The parser emits these statements as it reads the surface language (.svc
files); there is no separate lowering walk. Every mapping access m[k]
becomes SLOAD(SHA3(CONCAT(k, slot(m)))) (symmetrically for stores),
msg.sender becomes a CALLER statement, and expressions are flattened into
single-operation statements over fresh temps.

Temps (t0, t1, ...) are single-assignment. Named locals are mutable cells;
the value-flow engine resolves them flow-sensitively, so no phi nodes are
needed in the op set.

Statement operands are variable names (str) or literal Const exprs. An
external-call target written against an undeclared identifier is encoded
as "@name" and resolves to the opaque bound symbol <<contract:name>>.
"""

from __future__ import annotations

import re
from collections import namedtuple
from typing import Iterable, Optional, Tuple

from .symexpr import ADDRESS_BOUND, Const

# names of the lowering's single-assignment temps; surface locals may not
# take this form, but may otherwise start with "t"
TEMP_NAME = re.compile(r"t\d+\Z")

OPS = (
    "CONST", "BINOP", "SHA3", "CONCAT", "SLOAD", "SSTORE", "REQUIRE",
    "BRANCH", "JUMP", "CALLINTERNAL", "CALLEXTERNAL", "TRANSFER",
    "SELFDESTRUCT", "DELEGATECALL", "CALLER", "RETURN",
)
TERMINATORS = ("BRANCH", "JUMP", "RETURN", "SELFDESTRUCT")

CONSTRUCTOR_NAME = "constructor"


class IRError(Exception):
    """A contract value violates an IR invariant."""


# kind: "scalar" | "mapping"
StorageDecl = namedtuple("StorageDecl", "name slot kind")

# A literal as written in the surface text, with usage context.
LiteralUse = namedtuple("LiteralUse", "value address_position hex_form")

# One three-address statement: sid, an op of OPS, a tuple of operands, the
# result variable or None, binop for op == BINOP (incl. "NOT") or None,
# callee the signature for CALLEXTERNAL/CALLINTERNAL or None, targets a
# tuple of block ids for BRANCH/JUMP, and the source line.
Statement = namedtuple(
    "Statement", "sid op operands result binop callee targets line",
    defaults=((), None, None, None, (), 0))


class BasicBlock(namedtuple("BasicBlock", "bid statements")):
    """A block id and its list of Statements, the terminator last."""

    __slots__ = ()

    @property
    def terminator(self) -> Statement:
        return self.statements[-1]

    def successors(self) -> Tuple[str, ...]:
        return self.terminator.targets


class Function(namedtuple("Function",
                          "name visibility params blocks entry_block")):
    """visibility is "public" or "internal", params a tuple of (name,
    semantic type) pairs, blocks a list of BasicBlocks."""

    __slots__ = ()

    @property
    def is_constructor(self) -> bool:
        return self.name == CONSTRUCTOR_NAME

    @property
    def param_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.params)

    def block(self, bid: str) -> BasicBlock:
        for b in self.blocks:
            if b.bid == bid:
                return b
        raise KeyError(bid)

    def statements(self) -> Iterable[Statement]:
        for b in self.blocks:
            yield from b.statements

    def topo_blocks(self) -> list[BasicBlock]:
        """The blocks reachable from the entry, in a topological order of
        the (acyclic) CFG."""
        return _postorder(self, (self.entry_block,))[::-1]


def _postorder(fn: Function, roots: Iterable[str]) -> list[BasicBlock]:
    """The blocks reachable from roots, each after all of its successors:
    depth-first from each root in turn, successors in branch order.
    Iterative, so long chains of blocks do not exhaust the Python stack.
    Raises IRError on a cycle."""
    by_id = {b.bid: b for b in fn.blocks}
    order: list[BasicBlock] = []
    marks: dict[str, int] = {}  # 1: on the DFS path, 2: finished
    for root in roots:
        if root in marks:
            continue
        marks[root] = 1
        path = [(by_id[root], iter(by_id[root].successors()))]
        while path:
            block, succs = path[-1]
            for succ in succs:
                state = marks.get(succ)
                if state == 1:
                    raise IRError(f"cycle in CFG of {fn.name} at {succ}")
                if state is None:
                    marks[succ] = 1
                    path.append((by_id[succ], iter(by_id[succ].successors())))
                    break
            else:
                path.pop()
                marks[block.bid] = 2
                order.append(block)
    return order


class Contract(namedtuple("Contract",
                          "name storage functions literal_uses",
                          defaults=((),))):
    """storage, functions and literal_uses are tuples of StorageDecl,
    Function and LiteralUse."""

    __slots__ = ()

    def function(self, name: str) -> Optional[Function]:
        for f in self.functions:
            if f.name == name:
                return f
        return None

    @property
    def constructor(self) -> Optional[Function]:
        return self.function(CONSTRUCTOR_NAME)

    def public_functions(self) -> Tuple[Function, ...]:
        return tuple(f for f in self.functions
                     if f.visibility == "public" and not f.is_constructor)


def harvest_constants(contract: Contract) -> Tuple[frozenset, frozenset]:
    """(numeric constants, address-like constants) from the program text.

    Address-like: fits in 160 bits and appears in an address position, as
    the parser records it in `literal_uses`: a mapping key, the first argument
    of transfer/selfdestruct/delegatecall, a side of an `==` with an
    address-typed side, or the value assigned to address-typed storage or
    to an address-typed local.
    """
    numeric = frozenset(u.value for u in contract.literal_uses)
    addrs = frozenset(
        u.value for u in contract.literal_uses
        if u.address_position and u.value < ADDRESS_BOUND
    )
    return numeric, addrs


def validate(contract: Contract) -> None:
    """Assert the TYPE invariants; raises IRError on violation."""
    slots = [d.slot for d in contract.storage]
    if slots != list(range(len(slots))):
        raise IRError(f"{contract.name}: storage slots not consecutive from 0")
    names = [d.name for d in contract.storage]
    if len(set(names)) != len(names):
        raise IRError(f"{contract.name}: duplicate storage names")

    fnames = [f.name for f in contract.functions]
    if len(set(fnames)) != len(fnames):
        raise IRError(f"{contract.name}: duplicate function names")

    mapping_slots = {d.slot for d in contract.storage if d.kind == "mapping"}
    seen_sids: set[int] = set()
    for f in contract.functions:
        if f.visibility not in ("public", "internal"):
            raise IRError(f"{f.name}: bad visibility {f.visibility}")
        if not f.blocks:
            raise IRError(f"{f.name}: no blocks")
        block_ids = {b.bid for b in f.blocks}
        if f.entry_block not in block_ids:
            raise IRError(f"{f.name}: missing entry block")
        assigned_temps: set[str] = set()
        for b in f.blocks:
            if not b.statements:
                raise IRError(f"{f.name}/{b.bid}: empty block")
            for i, s in enumerate(b.statements):
                if s.op not in OPS:
                    raise IRError(f"{f.name}: unknown op {s.op}")
                if s.sid in seen_sids:
                    raise IRError(f"{f.name}: duplicate statement id {s.sid}")
                seen_sids.add(s.sid)
                is_term = s.op in TERMINATORS
                if is_term != (i == len(b.statements) - 1):
                    raise IRError(
                        f"{f.name}/{b.bid}: terminator placement at s{s.sid}")
                for t in s.targets:
                    if t not in block_ids:
                        raise IRError(f"{f.name}: branch to unknown block {t}")
                if s.op in ("SLOAD", "SSTORE"):
                    addr = s.operands[0]
                    if isinstance(addr, Const) and addr.value in mapping_slots:
                        raise IRError(
                            f"{f.name}: direct access to mapping slot "
                            f"{addr.value} at s{s.sid}")
                if s.result is not None and TEMP_NAME.match(s.result):
                    if s.result in assigned_temps:
                        raise IRError(
                            f"{f.name}: temp {s.result} assigned twice")
                    assigned_temps.add(s.result)
        f.topo_blocks()  # raises on cyclic CFGs


def flow_after(fn: Function) -> dict[int, frozenset]:
    """Statement id -> ids of the statements reachable after it on some
    intra-function CFG path, for every statement of fn (unreachable blocks
    included), in one pass that visits each block after its successors."""
    from_start: dict[str, frozenset] = {}  # block id -> ids from its head on
    out: dict[int, frozenset] = {}
    for block in _postorder(fn, [b.bid for b in fn.blocks]):
        later = frozenset().union(*(from_start[bid]
                                    for bid in block.successors()))
        for s in reversed(block.statements):
            out[s.sid] = later
            later = later | {s.sid}
        from_start[block.bid] = later
    return out


def live_in(fn: Function) -> dict[str, frozenset]:
    """Block id -> the variables that some path from the block's head reads
    before assigning them, for every block of fn (unreachable blocks
    included), in one backward pass that visits each block after its
    successors. An assignment kills, since it replaces the variable's
    values outright; "@name" operands are contract symbols, not variables."""
    out: dict[str, frozenset] = {}
    for block in _postorder(fn, [b.bid for b in fn.blocks]):
        live = set().union(*(out[bid] for bid in block.successors()))
        for s in reversed(block.statements):
            live.discard(s.result)
            live.update(op for op in s.operands
                        if isinstance(op, str) and not op.startswith("@"))
        out[block.bid] = frozenset(live)
    return out
