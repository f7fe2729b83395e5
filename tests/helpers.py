"""Test utilities: a brute-force concrete interpreter (the oracle the engine
is checked against), random expression generators for the reasoner
properties, and a random contract generator for oracle-equivalence runs.

The oracle deliberately shares no evaluation code with the engine: it
re-implements 256-bit semantics inline and models storage addresses as
plain tuples.
"""

from __future__ import annotations

import itertools
import random
from typing import Optional

from symvalic.clients import run_detectors
from symvalic.deps import EMPTY, Conflict, DependencyMap, combine
from symvalic.ir import Contract, Function
from symvalic.symexpr import (
    BINOPS, Const, Expr, Op, Sym, contract_symbol,
)
from symvalic.valueflow import (
    AnalysisConfig, AnalysisResult, _Engine, assemble,
)

WORD = 1 << 256
MASK = WORD - 1


def nested(depth: int, call):
    """call() from `depth` more stack frames."""
    return nested(depth - 1, call) if depth else call()


class Reverted(Exception):
    """A require failed in the concrete run."""


def _arith(op: str, a: int, b: int) -> int:
    if op == "ADD":
        return (a + b) & MASK
    if op == "SUB":
        return (a - b) & MASK
    if op == "MUL":
        return (a * b) & MASK
    if op == "DIV":
        return a // b if b else 0
    if op == "MOD":
        return a % b if b else 0
    if op == "LT":
        return 1 if a < b else 0
    if op == "GT":
        return 1 if a > b else 0
    if op == "EQ":
        return 1 if a == b else 0
    if op == "AND":
        return 1 if (a and b) else 0
    if op == "OR":
        return 1 if (a or b) else 0
    raise AssertionError(op)


def run_concrete(contract: Contract, fn_name: str, args: dict,
                 sender: int = 0xABCD, storage: Optional[dict] = None):
    """Directly interpret one function invocation with concrete values.

    Returns (return value or None, storage after). Storage keys are tuples:
    ('slot', n) for scalars, ('cell', key, slot) for mapping cells.
    Raises Reverted when a require fails; NotImplementedError on calls.
    """
    fn = contract.function(fn_name)
    assert fn is not None
    store = dict(storage or {})
    env = dict(args)
    addr_of: dict[str, tuple] = {}

    def value_of(operand):
        if isinstance(operand, Const):
            return operand.value
        return env[operand]

    block = fn.block(fn.entry_block)
    while True:
        jumped = False
        for s in block.statements:
            op = s.op
            if op == "CONST":
                env[s.result] = s.operands[0].value
            elif op == "CALLER":
                env[s.result] = sender
            elif op == "NOT":
                env[s.result] = 1 if value_of(s.operands[0]) == 0 else 0
            elif op in BINOPS:
                env[s.result] = _arith(op, value_of(s.operands[0]),
                                       value_of(s.operands[1]))
            elif op == "CONCAT":
                addr_of[s.result] = ("concat", value_of(s.operands[0]),
                                     value_of(s.operands[1]))
            elif op == "SHA3":
                env_key = addr_of[s.operands[0]]
                addr_of[s.result] = ("cell", env_key[1], env_key[2])
            elif op == "SLOAD":
                a = s.operands[0]
                key = (("slot", a.value) if isinstance(a, Const)
                       else addr_of[a])
                env[s.result] = store.get(key, 0)
            elif op == "SSTORE":
                a = s.operands[0]
                key = (("slot", a.value) if isinstance(a, Const)
                       else addr_of[a])
                store[key] = value_of(s.operands[1])
            elif op == "REQUIRE":
                if value_of(s.operands[0]) == 0:
                    raise Reverted()
            elif op == "BRANCH":
                target = s.targets[0] if value_of(s.operands[0]) else s.targets[1]
                block = fn.block(target)
                jumped = True
                break
            elif op == "JUMP":
                block = fn.block(s.targets[0])
                jumped = True
                break
            elif op == "RETURN":
                if s.operands:
                    return value_of(s.operands[0]), store
                return None, store
            else:
                raise NotImplementedError(op)
        if not jumped:
            raise AssertionError("block fell through without terminator")


# ---------------------------------------------------------------------------
# Reference formulations of dependency combination
# ---------------------------------------------------------------------------


def combine_dict(a: DependencyMap, b: DependencyMap):
    """combine() as a dict union followed by a sort, reporting the first
    clash in b's order; the reference for the sorted-merge combine."""
    sides = []
    for left, right, scope in ((a.local, b.local, "local"),
                               (a.transaction, b.transaction, "transaction")):
        merged = dict(left)
        for var, value in right:
            prev = merged.get(var)
            if prev is None:
                merged[var] = value
            elif prev != value:
                return Conflict(var, scope, prev, value)
        sides.append(tuple(sorted(merged.items())))
    return DependencyMap(*sides)


def product_combos(resolve, operands, alts):
    """The engine's operand combinations by product-and-prune: per
    alternative, the full cartesian product of the distinct operands'
    values (resolve(op, alt) -> [(expr, deps, depth)]), with every choice
    whose deps conflict dropped. Yields (alt, values, deps, depths) like
    the engine's indexed join, which must produce the same sequence."""
    for alt in alts:
        distinct: list = []
        for op in operands:
            if op not in distinct:
                distinct.append(op)
        resolved = [resolve(op, alt) for op in distinct]
        for choice in itertools.product(*resolved):
            d = alt.deps
            for _, cd, _ in choice:
                d = combine(d, cd)
                if isinstance(d, Conflict):
                    break
            if isinstance(d, Conflict):
                continue
            by_op = {op: choice[i] for i, op in enumerate(distinct)}
            yield (alt, [by_op[op][0] for op in operands], d,
                   [by_op[op][2] for op in operands])


class _Forgetful(dict):
    """A memo that keeps nothing, so that no lookup hits."""

    def __setitem__(self, key, value):
        pass


class EveryRoundEngine(_Engine):
    """The engine with its walk memo turned off: every entry point runs in
    every transaction round, and every internal call is walked. The
    reference for the walk memo, which must produce the same result in the
    same order."""

    def __init__(self, contract, config, entry_seeds):
        super().__init__(contract, config, entry_seeds)
        self.walk_memo = _Forgetful()


def run_engine(engine: type, contract: Contract, config: AnalysisConfig
               ) -> AnalysisResult:
    """analyze(contract, config), run by the given _Engine subclass."""
    return assemble(contract, config, engine(contract, config, None).run())


def analyze_every_round(contract: Contract, config: AnalysisConfig
                        ) -> AnalysisResult:
    return run_engine(EveryRoundEngine, contract, config)


def _in_order(value):
    return tuple(value.items()) if isinstance(value, dict) else value


def assert_same_result(engine: type, reference: type, contract: Contract,
                       config: AnalysisConfig = AnalysisConfig()
                       ) -> AnalysisResult:
    """Run contract through both _Engine subclasses and assert that the
    results agree: every field in engine order, the result document and
    the detectors' warnings. Returns engine's result."""
    got = run_engine(engine, contract, config)
    want = run_engine(reference, contract, config)
    for f in got._fields:
        assert _in_order(getattr(got, f)) == _in_order(getattr(want, f)), \
            (contract.name, f)
    assert got.to_json_text() == want.to_json_text(), contract.name
    assert run_detectors(got) == run_detectors(want), contract.name
    return got


class NoReplayEngine(_Engine):
    """The engine with its statement memo turned off: every walk that runs
    executes every statement anew. The reference for replays, which must
    produce the same result in the same order."""

    def __init__(self, contract, config, entry_seeds):
        super().__init__(contract, config, entry_seeds)
        self.stmt_memo = _Forgetful()


class EveryRoundNoReplayEngine(NoReplayEngine, EveryRoundEngine):
    """Every entry point in every round, every statement executed anew."""


class NoMemoEngine(_Engine):
    """The engine with its substitution memo and its combine memo turned
    off: every solver substitution of a value and every combination of two
    dependency maps are computed anew wherever they are needed. The
    reference for those memos, which must produce the same result in the
    same order."""

    def __init__(self, contract, config, entry_seeds):
        super().__init__(contract, config, entry_seeds)
        self.subst_memo = _Forgetful()
        self.combine_memo = _Forgetful()


class ProductEngine(_Engine):
    """The engine with its operand join replaced by product-and-prune
    (product_combos): per alternative, each operand is resolved anew, with
    no index and no level shared between alternatives. The reference for
    the join and its per-statement level cache, which must produce the
    same result in the same order."""

    def _combos(self, operands, env, alts, tracked, combined: bool = True):
        def resolve(op, alt):
            if op.__class__ is Const:
                return [(op, EMPTY, self.limit)]
            if op[0] == "@":
                return [(contract_symbol(op[1:]), EMPTY, self.limit)]
            return self._resolve(op, env.get(op, ()), alt, op in tracked[0])
        for alt, values, d, depths in product_combos(resolve, operands, alts):
            yield alt, values, d if combined else None, depths


class EveryVariableLiveEngine(_Engine):
    """The engine with every variable of a function live at each of its
    blocks, so that every variable crosses every CFG edge. The reference
    for the pruned edges, which must produce the same result in the same
    order, notes apart."""

    def __init__(self, contract, config, entry_seeds):
        super().__init__(contract, config, entry_seeds)
        self.live_in = {f.name: dict.fromkeys(self.live_in[f.name],
                                              variables_of(f))
                        for f in contract.functions}


def analyze_every_variable_live(contract: Contract, config: AnalysisConfig
                                ) -> AnalysisResult:
    return run_engine(EveryVariableLiveEngine, contract, config)


def _reads(s) -> list:
    return [op for op in s.operands
            if isinstance(op, str) and not op.startswith("@")]


def variables_of(fn: Function) -> frozenset:
    """Every variable fn names: its parameters, the names it reads and the
    names it assigns. "@name" operands are contract symbols."""
    names = set(fn.param_names)
    for s in fn.statements():
        names.update(_reads(s))
        if s.result is not None:
            names.add(s.result)
    return frozenset(names)


def variables_live_at(fn: Function, bid: str) -> frozenset:
    """The variables that some path from the head of block bid reads before
    assigning them, found by a fresh forward search per variable; the
    reference for ir.live_in, which computes every block's set in one
    backward pass. A statement reads its operands before it assigns."""
    live = set()
    for var in variables_of(fn):
        work, seen = [bid], set()
        while work and var not in live:
            b = work.pop()
            if b in seen:
                continue
            seen.add(b)
            block = fn.block(b)
            for s in block.statements:
                if var in _reads(s):
                    live.add(var)
                    break
                if s.result == var:
                    break
            else:
                work.extend(block.successors())
    return frozenset(live)


def statements_after(fn: Function, sid: int) -> frozenset:
    """Statement ids reachable after sid on some intra-function CFG path,
    found by a fresh search from sid's block; the reference for
    ir.flow_after, which computes every statement's set in one pass."""
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


# ---------------------------------------------------------------------------
# Random expressions for reasoner properties
# ---------------------------------------------------------------------------

ARITH = ("ADD", "SUB", "MUL", "DIV", "MOD")
CMP = ("LT", "GT", "EQ")


def gen_arith(rng: random.Random, syms: list, depth: int) -> Expr:
    """A random word-valued expression; logical nodes over arithmetic
    operands appear too, since the language lets `&&`, `||` and `!` take
    any word."""
    if depth <= 0 or rng.random() < 0.35:
        if syms and rng.random() < 0.5:
            return rng.choice(syms)
        return Const(rng.choice((0, 1, 2, 3, 5, 7, 90, 100, 255,
                                 WORD - 1, WORD - 2)))
    roll = rng.random()
    if roll < 0.08:
        return Op("SHA3", gen_arith(rng, syms, depth - 1))
    if roll < 0.14:
        return Op("CONCAT", gen_arith(rng, syms, depth - 1),
                  gen_arith(rng, syms, depth - 1))
    if roll < 0.20:
        return Op("NOT", gen_arith(rng, syms, depth - 1))
    if roll < 0.30:
        return Op(rng.choice(("AND", "OR")), gen_arith(rng, syms, depth - 1),
                  gen_arith(rng, syms, depth - 1))
    return Op(rng.choice(ARITH), gen_arith(rng, syms, depth - 1),
              gen_arith(rng, syms, depth - 1))


def gen_bool(rng: random.Random, syms: list, depth: int) -> Expr:
    """A random truth value (it evaluates to 0 or 1): a comparison, or
    AND/OR/NOT over truth values and, at times, arithmetic operands."""
    if depth <= 0 or rng.random() < 0.3:
        return Op(rng.choice(CMP), gen_arith(rng, syms, 1),
                  gen_arith(rng, syms, 1))
    roll = rng.random()
    if roll < 0.25:
        return Op("NOT", _logic_operand(rng, syms, depth - 1))
    if roll < 0.65:
        return Op("AND", _logic_operand(rng, syms, depth - 1),
                  _logic_operand(rng, syms, depth - 1))
    return Op("OR", _logic_operand(rng, syms, depth - 1),
              _logic_operand(rng, syms, depth - 1))


def _logic_operand(rng: random.Random, syms: list, depth: int) -> Expr:
    if rng.random() < 0.25:
        return gen_arith(rng, syms, 1)
    return gen_bool(rng, syms, depth)


def gen_assignment(rng: random.Random, e: Expr) -> dict:
    """Total assignment for e's symbols; distinct bound symbols get distinct
    values (the bound-identity axiom the normalizer relies on)."""
    out = {}
    bound_taken = set()
    for node in e.walk():
        if isinstance(node, Sym) and node.name not in out:
            v = rng.getrandbits(rng.choice((8, 16, 256))) & MASK
            if node.bound:
                while v in bound_taken:
                    v = rng.getrandbits(16)
                bound_taken.add(v)
            out[node.name] = v
    return out


def some_syms(rng: random.Random) -> list:
    pool = [Sym("x", False), Sym("y", False), Sym("z", False),
            Sym("<<owner>>", True), Sym("<<unprivileged-user>>", True)]
    rng.shuffle(pool)
    return pool[: rng.randint(1, 4)]


# ---------------------------------------------------------------------------
# Random contracts for oracle equivalence
# ---------------------------------------------------------------------------


def _gen_body(rng: random.Random, seed_vars: list) -> list:
    """Statement lines: local assignments, an optional require, and one or
    two (possibly nested via sequence) branches over mutable locals."""
    consts = [rng.randint(0, 9) for _ in range(3)]
    vars_avail = list(seed_vars)
    lines = []

    def atom():
        if rng.random() < 0.6 and vars_avail:
            return rng.choice(vars_avail)
        return str(rng.choice(consts))

    def arith(depth=2):
        if depth == 0 or rng.random() < 0.4:
            return atom()
        op = rng.choice("+-*/%")
        return f"({arith(depth - 1)} {op} {arith(depth - 1)})"

    def cond():
        op = rng.choice(("<", ">", "=="))
        c = f"{arith(1)} {op} {arith(1)}"
        if rng.random() < 0.3:
            c = (f"({c}) {rng.choice(('&&', '||'))} "
                 f"({arith(1)} {rng.choice(('<', '>'))} {arith(1)})")
        return c

    locals_only = []
    for i in range(rng.randint(1, 3)):
        name = f"v{i}"
        lines.append(f"{name} = {arith()};")
        vars_avail.append(name)
        locals_only.append(name)
    if rng.random() < 0.5:
        lines.append(f"require({cond()});")
    for _ in range(rng.randint(1, 2)):
        then_var = rng.choice(locals_only)  # parameters are read-only
        body = f"{then_var} = {arith()};"
        if rng.random() < 0.5:
            lines.append(f"if ({cond()}) {{ {body} }}")
        else:
            else_var = rng.choice(locals_only)
            lines.append(f"if ({cond()}) {{ {body} }} else {{ "
                         f"{else_var} = {arith()}; }}")
    lines.append(f"return {rng.choice(vars_avail)};")
    return lines


def _assemble(name: str, params: list, lines: list, decls: str = "",
              ctor: str = "") -> str:
    body = "\n        ".join(lines)
    sig = ", ".join("uint " + p for p in params)
    parts = [f"contract {name} {{"]
    if decls:
        parts.append(decls)
    if ctor:
        parts.append(f"\n    function constructor() internal {{\n{ctor}\n    }}")
    parts.append(f"\n    function run({sig}) public {{\n        {body}\n    }}")
    parts.append("}")
    return "\n".join(parts) + "\n"


def gen_oracle_contract(rng: random.Random, index: int) -> tuple:
    """A straight-line/branching contract over uint params, no storage or
    calls. Returns (source text, fn name, param names)."""
    params = [f"p{i}" for i in range(rng.randint(1, 2))]
    lines = _gen_body(rng, params)
    return _assemble(f"Gen{index}", params, lines), "run", params


def gen_storage_contract(rng: random.Random, index: int) -> tuple:
    """Like gen_oracle_contract but with scalar storage written by the
    constructor and read (never written) by the function, so concrete and
    round-snapshot storage semantics coincide."""
    params = [f"p{i}" for i in range(rng.randint(1, 2))]
    slots = [f"s{i}" for i in range(rng.randint(1, 3))]
    decls = "\n".join(f"    uint {s};" for s in slots)
    ctor = "\n".join(f"        {s} = {rng.randint(0, 50)};"
                     for s in slots if rng.random() < 0.8) or "        noop = 1;"
    reads = [f"r{i} = {rng.choice(slots)};" for i in range(rng.randint(1, 2))]
    lines = reads + _gen_body(rng, params + [f"r{i}" for i in range(len(reads))])
    return (_assemble(f"Stor{index}", params, lines, decls, ctor),
            "run", params)


def gen_rounds_contract(rng: random.Random, index: int) -> str:
    """Public functions that read and write scalar storage and call one
    internal helper that does the same, so that one transaction round's
    writes feed the next round's reads, some cells are written but never
    read, and helper walks are shared through the walk memo."""
    slots = [f"s{i}" for i in range(rng.randint(2, 3))]
    templates = (
        lambda: f"r = {rng.choice(slots)}; call helper(r);",
        lambda: f"call helper({rng.randint(0, 1)});",
        lambda: f"{rng.choice(slots)} = {rng.randint(1, 3)};",
        lambda: (f"{rng.choice(slots)} = "
                 f"p {rng.choice('+-*')} {rng.randint(0, 3)};"),
        lambda: (f"r = {rng.choice(slots)}; "
                 f"{rng.choice(slots)} = r {rng.choice('+*')} 1;"),
    )
    parts = [f"contract Rounds{index} {{"]
    parts.extend(f"    uint {s};" for s in slots)
    for i in range(rng.randint(2, 5)):
        body = rng.choice(templates)()
        sig = "uint p" if " p " in body else ""
        parts.append(f"    function f{i}({sig}) public {{ {body} }}")
    parts.append(f"    function helper(uint x) internal {{ "
                 f"y = {rng.choice(slots)}; {rng.choice(slots)} = y + x; }}")
    parts.append("}")
    return "\n".join(parts) + "\n"


def gen_gated_contract(rng: random.Random, index: int) -> str:
    """A contract of the corpus-gated benchmark's shape: gates on address
    parameters (pair branches on b == a, route requires a to be the owner
    or the admin), so the solver proposes values whose substitutions the
    engine adopts. The admin address, the fee, route's recipient and
    whether sweep is guarded vary with rng."""
    recipient = rng.choice(("b", "owner"))
    sweep_guard = ("        require(auth[msg.sender] == 1);\n"
                   if rng.random() < 0.7 else "")
    return (
        f"contract Gated{index:02d} {{\n"
        "    address owner;\n    address admin;\n    mapping auth;\n"
        "    mapping bal;\n    uint fee;\n\n"
        "    function constructor() internal {\n"
        "        owner = msg.sender;\n"
        f"        admin = {hex(rng.randint(0x100, 0xFFF))};\n"
        "        auth[msg.sender] = 1;\n"
        f"        fee = {rng.randint(1, 30)};\n    }}\n\n"
        "    function setFee(uint f) public {\n"
        "        require(msg.sender == owner || msg.sender == admin);\n"
        "        fee = f;\n    }\n\n"
        "    function credit(address who, uint amount) public {\n"
        "        require(auth[msg.sender] == 1);\n"
        "        bal[who] = amount + fee;\n    }\n\n"
        "    function pair(address a, address b) public {\n"
        "        if (b == a) { bal[a] = fee; }\n    }\n\n"
        "    function route(address a, address b) public {\n"
        "        require(a == owner || a == admin);\n"
        f"        call registry.record({recipient}, fee);\n    }}\n\n"
        "    function sweep() public {\n"
        f"{sweep_guard}"
        "        call vault.sweep(owner);\n    }\n}\n")
