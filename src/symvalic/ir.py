"""Contract intermediate language: storage layout, functions, three-address
statements, and basic-block control flow.

The surface language (.svc files) is lowered here by the parser: every
mapping access m[k] becomes SLOAD(SHA3(CONCAT(k, slot(m)))) (symmetrically
for stores), msg.sender becomes a CALLER statement, and expressions are
flattened into single-operation statements over fresh temps.

Temps (t0, t1, ...) are single-assignment. Named locals are mutable cells;
the value-flow engine resolves them flow-sensitively, so no phi nodes are
needed in the op set.

Statement operands are variable names (str) or literal Const exprs. An
external-call target written against an undeclared identifier is encoded
as "@name" and resolves to the opaque bound symbol <<contract:name>>.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Optional, Tuple, Union

from .symexpr import ADDRESS_BOUND, Concat, Const, Expr, Sha3

SEMANTIC_TYPES = ("uint256", "address", "bool")

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

Operand = Union[str, Const]


class IRError(Exception):
    """A contract value violates an IR invariant."""


@dataclass(frozen=True)
class StorageDecl:
    name: str
    slot: int
    kind: str  # "scalar" | "mapping"


@dataclass(frozen=True)
class LiteralUse:
    """A literal as written in the surface text, with usage context."""

    value: int
    address_position: bool
    hex_form: bool


@dataclass(eq=True)
class Statement:
    sid: int
    op: str
    operands: Tuple[Operand, ...] = ()
    result: Optional[str] = None
    binop: Optional[str] = None          # for op == BINOP (incl. "NOT")
    callee: Optional[str] = None         # signature for CALLEXTERNAL/CALLINTERNAL
    targets: Tuple[str, ...] = ()        # block ids for BRANCH/JUMP
    line: int = field(default=0, compare=False)

    def render(self) -> str:
        parts = [f"s{self.sid}:", self.op if self.binop is None else self.binop]
        if self.callee:
            parts.append(self.callee)
        if self.operands:
            parts.append("(" + ", ".join(_render_operand(o) for o in self.operands) + ")")
        if self.targets:
            parts.append("-> " + "/".join(self.targets))
        if self.result:
            parts.append(f"=> {self.result}")
        return " ".join(parts)


def _render_operand(o: Operand) -> str:
    return o if isinstance(o, str) else o.render()


@dataclass(eq=True)
class BasicBlock:
    bid: str
    statements: list[Statement] = field(default_factory=list)

    @property
    def terminator(self) -> Statement:
        return self.statements[-1]

    def successors(self) -> Tuple[str, ...]:
        return self.terminator.targets


@dataclass(eq=True)
class Function:
    name: str
    visibility: str  # "public" | "internal"
    params: Tuple[Tuple[str, str], ...]  # (name, semantic type)
    blocks: list[BasicBlock] = field(default_factory=list)
    entry_block: str = ""

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
        """Blocks in a topological order of the (acyclic) CFG."""
        order: list[BasicBlock] = []
        marks: dict[str, int] = {}

        def visit(bid: str):
            state = marks.get(bid, 0)
            if state == 1:
                raise IRError(f"cycle in CFG of {self.name} at {bid}")
            if state == 2:
                return
            marks[bid] = 1
            for succ in self.block(bid).successors():
                visit(succ)
            marks[bid] = 2
            order.append(self.block(bid))

        visit(self.entry_block)
        order.reverse()
        return order

    def predecessors(self) -> dict[str, list[str]]:
        preds: dict[str, list[str]] = {b.bid: [] for b in self.blocks}
        for b in self.blocks:
            for succ in b.successors():
                preds[succ].append(b.bid)
        return preds


@dataclass(eq=True)
class Contract:
    name: str
    storage: Tuple[StorageDecl, ...]
    functions: Tuple[Function, ...]
    literal_uses: Tuple[LiteralUse, ...] = ()
    source_ast: object = field(default=None, compare=False, repr=False)

    def storage_by_name(self, name: str) -> Optional[StorageDecl]:
        for decl in self.storage:
            if decl.name == name:
                return decl
        return None

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

    @property
    def address_constants(self) -> frozenset:
        _, addrs = harvest_constants(self)
        return addrs

def harvest_constants(contract: Contract) -> Tuple[frozenset, frozenset]:
    """(numeric constants, address-like constants) from the program text.

    Address-like: fits in 160 bits and appears in an address position
    (mapping key, transfer/selfdestruct/delegatecall argument, assignment
    to or comparison with an address-typed expression).
    """
    numeric = frozenset(u.value for u in contract.literal_uses)
    addrs = frozenset(
        u.value for u in contract.literal_uses
        if u.address_position and u.value < ADDRESS_BOUND
    )
    return numeric, addrs


def slot_of_address(addr: Expr) -> Optional[int]:
    """Recover the declared slot from a storage address expr, if apparent."""
    if isinstance(addr, Const):
        return addr.value
    if isinstance(addr, Sha3) and isinstance(addr.operand, Concat):
        slot = addr.operand.right
        if isinstance(slot, Const):
            return slot.value
    return None


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


def statements_after(fn: Function, sid: int) -> frozenset:
    """Statement ids reachable after sid on some intra-function CFG path."""
    target_block = None
    later: set[int] = set()
    for b in fn.blocks:
        for i, s in enumerate(b.statements):
            if s.sid == sid:
                target_block = b
                later.update(x.sid for x in b.statements[i + 1:])
                break
        if target_block is not None:
            break
    if target_block is None:
        return frozenset()
    # successor-block closure
    work = list(target_block.successors())
    seen: set[str] = set()
    while work:
        bid = work.pop()
        if bid in seen:
            continue
        seen.add(bid)
        blk = fn.block(bid)
        later.update(s.sid for s in blk.statements)
        work.extend(blk.successors())
    return frozenset(later)
