"""The symvalic fixpoint engine.

Seeds entry-point inputs with concrete and symbolic values, propagates
(variable, value, dependency-map) inferences through three-address
statements, models storage across transaction rounds, and enforces path
sensitivity by consulting the symbolic reasoner at REQUIRE/BRANCH gates.

Mechanics
---------
Public functions are explored in transaction rounds against the storage
committed by earlier rounds (the constructor runs first, with the sender
fixed to <<owner>>). A commit gives a new version to each storage key that
gained a value or a greater depth. A walk or a statement that meets the
inputs of an earlier one, and loads no cell whose version has changed
since, would repeat it fact for fact and write for write, and those facts
and writes are already recorded. Two memos, which last for one analysis,
rest on this: each entry keeps the versions of the cells its run loaded,
and a hit is used only while they are current. The walk memo is keyed,
for an entry point, on its name (its inputs are built once), and for an
internal call on the callee, its argument values and depths, its
alternative, and which functions that some internal call names are on
the stack (a call to a function on the stack is skipped). A hit hands the
walk's reads to the caller, which depends on them as if it had walked the
callee. The statement memo is keyed on the statement id, the alternatives
and the operand values (for a branch, also the values of the variables
live at either target). A replay assigns the recorded values, feeds the
recorded payload to each arm of a branch, hands on the recorded reads and
continues with the recorded alternatives; its facts, notes and call rows
are already recorded, in the order a recomputation would keep, and equal
values print alike. Jumps (they only merge), storage writes (already
folded into the commit) and internal calls (the walk memo) always run.

Inside a function, blocks of the acyclic CFG are visited in topological
order carrying:

  * an environment: variable -> set of (value, deps, depth) triples;
  * reachability alternatives: (deps, path-condition, solver substitution)
    triples describing the distinguishable ways control reached the block.

A statement executes once for each alternative and each choice of operand
values whose dependency maps are compatible with the alternative's and
with each other; choices that belong to guaranteed-separate executions
are never formed. The choices are found by a join, not by enumerating the
cartesian product: each operand's values are indexed by their bindings
(scope, variable -> value -> bitset of values), and each level of the
join visits only the values that agree with the dependencies chosen so
far, in the order the product would have produced them. Only variable
operands are joined: a constant or @name symbol is one value with no
dependencies, which combines with anything and changes nothing. Branch
edges tag the flowing environment with the surviving arm alternatives,
matched through one index over all of them: each value is substituted
once per distinct substitution and meets only the alternatives that
carry it, so values that took the other arm conflict and die where the
arms meet. Only the variables live at an edge's target (some path from
its head reads them before assigning them, ir.live_in) cross the edge:
the values of the others are never read again, so they are neither
tagged, merged nor trimmed. When a value or alternative bound is hit,
survivors are picked round-robin across sender bindings, so the
untrusted caller is never trimmed away wholesale. Storage writes are
buffered during a round and committed (with dependencies stripped: a new
transaction is a new dependency world) at the round boundary.

Every value is one object: expressions and dependency maps are interned
for the process (symexpr, deps), and a _Val, the (expression, deps,
depth) triple a variable holds, is interned in a table that lasts for one
run. So every memo and collector below compares and hashes its keys by
identity, in C, and a memoized value is the very object a recomputation
would build. Identity hashes follow memory addresses: no set of values is
iterated into an output unsorted.

Three more memos, which last for one analysis, keep operand work from
repeating at every statement. The substitution memo is keyed by a solver
substitution, then separately by an expression and by a dependency map,
and holds each one's normalized substituted form. The operand memo is
keyed by a variable, the identity of the value tuple it holds (the memo
keeps that tuple, so its id is not reused), the substitution and whether
the variable is tracked, and holds the variable's indexed values. A
value tuple is replaced, never changed, when its variable is assigned or
merged, so a hit is exact. The combine memo holds combine's result for
each pair of dependency maps the join, an operand binding or a branch
edge combines.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from collections import namedtuple
from collections.abc import Iterable, Mapping
from functools import cached_property, lru_cache
from json.encoder import encode_basestring_ascii as _str
from operator import itemgetter

try:  # SHA-256 without OpenSSL, whose loading (_hashlib) costs start-up
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .deps import (
    DEFAULT_BUDGET, EMPTY, Conflict, DependencyMap, SENDER_KEY, TrackingPlan,
    combine,
)
from .ir import (
    TEMP_NAME, Contract, Function, Statement, flow_after, harvest_constants,
    live_in,
)
from .symexpr import (
    ARITH_OPS, ARITY, Const, Expr, FALSE, OWNER, OWNER_UNIQUE, Op, Sym, TRUE,
    UNPRIVILEGED_USER, USER_UNIQUE, WORD,
    as_expr, contract_symbol, expr_key, free_syms, implies, normalize,
    substitute, value_for_var,
)

SENDER_INPUT = "msg.sender"


class AnalysisConfig(namedtuple(
        "AnalysisConfig",
        "budget arithmetic_depth_limit transaction_rounds seed "
        "max_values_per_var max_alts_per_block max_inferences time_budget",
        defaults=(DEFAULT_BUDGET, 5, 3, 1, 64, 256, 200_000, 60.0))):
    """Engine limits. All bounds are >= 1 and time_budget is None (no
    deadline) or > 0; see the CLI for the flag names. Raises ValueError on
    any other value (NaN among them); _replace would skip that check."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if min(self.arithmetic_depth_limit, self.transaction_rounds,
               self.max_values_per_var, self.max_alts_per_block,
               self.max_inferences) < 1:
            raise ValueError("limits must be >= 1")
        if self.time_budget is not None and not self.time_budget > 0:
            raise ValueError("time budget must be > 0")
        return self


# Variable `var` (in `function`) may hold `value` under `deps`.
Inference = namedtuple("Inference", "function var value deps")

ReachabilityFact = namedtuple("ReachabilityFact", "function stmt deps")

# An executed external call or sensitive intrinsic. callee is a signature:
# the callee's name, or TRANSFER/SELFDESTRUCT/...; kind is "external" or
# "intrinsic"; target_values a tuple of (value, deps) pairs, and
# arg_values one such tuple per argument position.
CallSite = namedtuple(
    "CallSite", "stmt function callee kind target_values arg_values")


class AnalysisResult(namedtuple(
        "AnalysisResult",
        "contract config inferences reachability calls stores returns "
        "storage truncated notes functions flow_after")):
    """One contract's analysis: the facts an engine run collected, then the
    contract's structure: function names and statement follow-order. The
    result document is defined by to_json_text, which writes it straight
    from the records (to_json_dict parses that text back). It prints every
    fact except stores, which only detect_reentrancy reads, and its storage
    section is the committed storage; it leaves the structure out. Unlike
    the other records it has an instance __dict__, which holds the index
    stmt_reachable builds on first use.

    The facts: tuples of Inference, ReachabilityFact and CallSite; stores,
    the (function, stmt) of each SSTORE run; returns, a mapping from a
    function name to its tuple of (value, deps) pairs; storage, (address,
    value, depth) triples; truncated; and notes, a tuple of strings. The
    structure: functions, the declared function names, and flow_after, a
    mapping from a statement id to a frozenset of statement ids."""

    # -- queries --------------------------------------------------------

    def var_may_be(self, var, value=None, local=None, tx=None, function=None
                   ) -> tuple[Inference, ...]:
        """Inferences matching the patterns (None = wildcard).

        Dependency patterns match when every pattern entry is present and
        equal in the witness; other entries are unconstrained.
        """
        want = None if value is None else normalize(as_expr(value))
        out = []
        for inf in self.inferences:
            if function is not None and inf.function != function:
                continue
            if inf.var != var:
                continue
            if want is not None and inf.value != want:
                continue
            if _deps_match(inf.deps, local, tx):
                out.append(inf)
        return tuple(out)

    def stmt_reachable(self, stmt, local=None, tx=None
                       ) -> tuple[ReachabilityFact, ...]:
        """Reachability facts of stmt matching the patterns, in order."""
        return tuple(f for f in self._reach_by_stmt.get(stmt, ())
                     if _deps_match(f.deps, local, tx))

    @cached_property
    def _reach_by_stmt(self) -> dict[int, list[ReachabilityFact]]:
        by_stmt: dict[int, list[ReachabilityFact]] = {}
        for f in self.reachability:
            by_stmt.setdefault(f.stmt, []).append(f)
        return by_stmt

    def return_values(self, function: str) -> tuple[Expr, ...]:
        """The distinct values function may return, in expr_key order."""
        return tuple(sorted({v for v, _ in self.returns.get(function, ())},
                            key=expr_key))

    def to_json_text(self) -> str:
        """The result document, which this method defines: the bytes of
        json.dumps(doc, indent=2, sort_keys=True), with no final newline."""
        return _result_text(self)

    def to_json_dict(self) -> dict:
        return json.loads(self.to_json_text())


def _deps_match(d: DependencyMap, local, tx) -> bool:
    if local:
        have = d.local_map
        for var, value in local.items():
            want = normalize(as_expr(value))
            if have.get(var) != want:
                return False
    if tx:
        have = d.transaction_map
        for var, value in tx.items():
            want = normalize(as_expr(value))
            if have.get(var) != want:
                return False
    return True


# ---------------------------------------------------------------------------
# Input seeding
# ---------------------------------------------------------------------------


def _derived_rng(seed: int, *scope: str) -> random.Random:
    material = f"{seed}|" + "|".join(scope)
    digest = sha256(material.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))

# Bounds of the two seeded draws from the program text: up to 3 small
# constants (< 256) and up to 8 constants overall. With eight or fewer
# constants in the text every one of them is seeded.
SMALL_CONST_DRAW = 3
TEXT_CONST_DRAW = 8


def seed_inputs(fn: Function, contract: Contract,
                config: AnalysisConfig | None = None
                ) -> dict[str, tuple[Expr, ...]]:
    """Initial value sets for a public function's parameters.

    Numeric parameters: {0, 1}, a seeded draw of small program constants,
    2^256-1 (overflow trigger), and a seeded draw over all program
    constants. Address parameters: address-like program constants plus the
    free symbols <<owner-unique-value>> / <<user-unique-value>>. Booleans:
    {0, 1}. The implicit sender (key "msg.sender"): address-like constants
    plus the bound symbols <<owner>> / <<unprivileged-user>>.
    """
    cfg = config or AnalysisConfig()
    numeric, addr_like = harvest_constants(contract)
    addr_consts = tuple(Const(a) for a in sorted(addr_like))
    seeds: dict[str, tuple[Expr, ...]] = {}
    for pname, ptype in fn.params:
        if ptype == "address":
            seeds[pname] = addr_consts + (OWNER_UNIQUE, USER_UNIQUE)
        elif ptype == "bool":
            seeds[pname] = (Const(0), Const(1))
        else:
            rng = _derived_rng(cfg.seed, contract.name, fn.name, pname)
            chosen = {0, 1, WORD - 1}
            small = sorted(v for v in numeric if v < 256)
            chosen.update(rng.sample(small, min(SMALL_CONST_DRAW, len(small))))
            full = sorted(numeric)
            chosen.update(rng.sample(full, min(TEXT_CONST_DRAW, len(full))))
            seeds[pname] = tuple(Const(v) for v in sorted(chosen))
    seeds[SENDER_INPUT] = (OWNER, UNPRIVILEGED_USER) + addr_consts
    return seeds


SeedOverrides = Mapping[tuple[str, str], Iterable[Expr | int]]

# (local names, transaction keys) that a walk's dependency maps may bind
Tracked = tuple[frozenset, frozenset]


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


# One distinguishable way control reached the current point: its deps, pc
# the frozenset of assumed-true normalized exprs, and subst the tuple of
# solver-chosen (Sym, Expr) assignments.
_Alt = namedtuple("_Alt", "deps pc subst", defaults=(frozenset(), ()))


class _Val:
    """A value a variable may hold: its expression, the dependencies it
    carries, and its remaining arithmetic depth through storage. Interned
    like expressions, on (expr, deps, depth), but in the running engine's
    table (_Engine.run swaps in a fresh one and drops it when it returns),
    since a _Val never leaves the engine."""

    __slots__ = ("expr", "deps", "depth")
    table: dict = {}

    def __new__(cls, expr: Expr, deps: DependencyMap, depth: int):
        key = (expr, deps, depth)
        self = cls.table.get(key)
        if self is None:
            self = cls.table[key] = object.__new__(cls)
            self.expr = expr
            self.deps = deps
            self.depth = depth
        return self

    def __reduce__(self):
        return _Val, (self.expr, self.deps, self.depth)


# What replaying one memoized statement execution needs: the alternatives
# that continued past it, the values it assigned (or None), the (payload,
# alternatives, target) of each branch edge it fed, and the storage cells
# it loaded (key -> version).
_Replay = namedtuple("_Replay", "alts assigned edges reads")


class _Timeout(Exception):
    pass


class _DepIndex:
    """Bitset index of a list of dependency maps by their bindings.

    Per scope and variable: value -> bitset of the maps that bind the
    variable to that value, and the bitset of the maps that leave it
    unbound. Bit i stands for the i-th map.
    """

    __slots__ = ("full", "local", "tx")

    def __init__(self, maps: list[DependencyMap]):
        self.full = (1 << len(maps)) - 1
        self.local = _bindings([m.local for m in maps], self.full)
        self.tx = _bindings([m.transaction for m in maps], self.full)

    def compatible(self, d: DependencyMap) -> int:
        """Bitset of the maps that combine with d without a Conflict."""
        mask = self.full
        for entries, index in ((d.local, self.local), (d.transaction, self.tx)):
            for var, value in entries:
                hit = index.get(var)
                if hit is not None:
                    by_value, unbound = hit
                    mask &= by_value.get(value, 0) | unbound
                    if not mask:
                        return 0
        return mask


def _bindings(sides: list, full: int) -> dict:
    by_var: dict[str, dict[Expr, int]] = {}
    for i, entries in enumerate(sides):
        bit = 1 << i
        for var, value in entries:
            by_value = by_var.setdefault(var, {})
            by_value[value] = by_value.get(value, 0) | bit
    out = {}
    for var, by_value in by_var.items():
        bound = 0
        for bits in by_value.values():
            bound |= bits
        out[var] = (by_value, full & ~bound)
    return out


def _bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _combine(memo: dict, a: DependencyMap, b: DependencyMap):
    """combine(a, b), memoized in memo on the (interned) pair."""
    got = memo.get((a, b))
    if got is None:
        got = memo[a, b] = combine(a, b)
    return got


def _join(levels: list, d: DependencyMap, memo: dict, combined: bool = True):
    """(picks, deps) for every choice of one candidate per level that
    combines with d without a Conflict, in lexicographic order; deps is d
    combined with every pick, or None when combined is false (the last
    combine is then skipped). Levels are (candidates, _DepIndex) pairs,
    walked depth-first by one loop; memo is _combine's."""
    last = len(levels) - 1
    if last < 0:
        yield (), d
        return
    picks = [None] * (last + 1)
    ds = [d] * (last + 1)  # ds[i]: d combined with the picks before level i
    masks = [levels[0][1].compatible(d)] + [0] * last
    i = 0
    while i >= 0:
        mask = masks[i]
        if not mask:
            i -= 1
            continue
        low = mask & -mask
        masks[i] = mask ^ low
        cand = picks[i] = levels[i][0][low.bit_length() - 1]
        if i == last:
            yield tuple(picks), (_combine(memo, ds[i], cand[1]) if combined
                                 else None)
        else:
            i += 1
            ds[i] = _combine(memo, ds[i - 1], cand[1])
            masks[i] = levels[i][1].compatible(ds[i])


def _trim(items: list, limit: int) -> list:
    """`limit` of the items (values or alternatives), picked round-robin
    across their distinct sender bindings in first-seen order, kept in
    their original order. A plain prefix would keep only the owner's
    entries, which come first, once the bound is hit."""
    groups: dict[Expr | None, list[int]] = {}
    for i, item in enumerate(items):
        groups.setdefault(item.deps.sender(), []).append(i)
    chosen: list[int] = []
    for rank in itertools.count():
        for group in groups.values():
            if rank < len(group):
                chosen.append(group[rank])
                if len(chosen) == limit:
                    return [items[i] for i in sorted(chosen)]


def _live_env(env, live: frozenset) -> dict:
    """The entries of env whose variable is in live, in env's order (the
    order in which an edge notes its trims)."""
    return {var: vals for var, vals in env.items() if var in live}


class _Engine:
    def __init__(self, contract: Contract, config: AnalysisConfig,
                 entry_seeds: SeedOverrides | None):
        self.contract = contract
        self.cfg = config
        self.entry_seeds = dict(entry_seeds or {})
        self.limit = config.arithmetic_depth_limit
        self.truncated = False
        self.notes: list[str] = []
        self.deadline = (time.monotonic() + config.time_budget
                         if config.time_budget else None)
        self.topo = {f.name: f.topo_blocks() for f in contract.functions}
        self.live_in = {f.name: live_in(f) for f in contract.functions}
        # qualified transaction keys of each entry point's tracked arguments
        self.tx_keys = {
            f.name: tuple(f"{f.name}.{p}"
                          for p in f.param_names[: config.budget.tx_args])
            for f in contract.functions}

        # per function, the names the budget tracks: locals in a walk of it,
        # transaction keys in a walk entered through it. The storage-load
        # variables are the SLOADs into named locals in statement order, of
        # which the budget tracks the first storage_loads (temps are the
        # unnamed intermediate loads, e.g. inside a require condition).
        # Reassigned locals are not trackable: a name-keyed dependency must
        # denote one value per execution.
        self.tracked_locals: dict[str, frozenset] = {}
        self.tracked_tx: dict[str, frozenset] = {}
        for f in contract.functions:
            assign_counts: dict[str, int] = {}
            for s in f.statements():
                if s.result:
                    assign_counts[s.result] = assign_counts.get(s.result, 0) + 1
            loads = tuple(s.result for s in f.statements()
                          if s.op == "SLOAD" and s.result
                          and not TEMP_NAME.match(s.result)
                          and assign_counts[s.result] == 1)
            plan = TrackingPlan(f.param_names, loads, self.tx_keys[f.name])
            self.tracked_locals[f.name] = plan.tracked_locals(config.budget)
            self.tracked_tx[f.name] = plan.tracked_tx(config.budget)

        # collectors (ordered dedup)
        self.inferences: dict[Inference, None] = {}
        self.reach: dict[ReachabilityFact, None] = {}
        self.stores: dict[tuple[str, int], None] = {}
        self.returns: dict[str, dict[tuple[Expr, DependencyMap], None]] = {}
        self.call_rows: dict[tuple[int, str, str, str], dict] = {}
        self.storage: dict[Expr, dict[Expr, int]] = {}
        self.buffer: dict[Expr, dict[Expr, int]] = {}
        # per storage key, the commits that changed it, and the keys the
        # running walk read, with their versions
        self.versions: dict[Expr, int] = {}
        self.reads: dict[Expr, int] = {}
        # per entry point, its input env and sender alternatives, built on
        # its first run; the functions some internal call names
        self.starts: dict[str, tuple] = {}
        self.callees = frozenset(s.callee for f in contract.functions
                                 for s in f.statements()
                                 if s.op == "CALLINTERNAL")
        # the memos that replay work (see Mechanics): walk key -> the reads
        # of that walk, and statement key -> _Replay
        self.walk_memo: dict = {}
        self.stmt_memo: dict[tuple, _Replay] = {}
        # the operand memos (see Mechanics): subst -> (its mapping, expr ->
        # substituted expr, deps -> substituted deps), and (variable, id of
        # its value tuple, subst, tracked) -> (that tuple, its join level)
        self.subst_memo: dict[tuple, tuple] = {}
        self.operand_memo: dict[tuple, tuple] = {}
        # (a, b) -> combine(a, b), for two interned dependency maps
        self.combine_memo: dict[tuple, DependencyMap | Conflict] = {}

    # -- top level -------------------------------------------------------

    def run(self) -> dict:
        _Val.table = {}
        try:
            ctor = self.contract.constructor
            if ctor is not None:
                self._run_entry(ctor, senders=(OWNER,))
                self._commit()
            for _ in range(self.cfg.transaction_rounds):
                for f in self.contract.public_functions():
                    self._run_entry(f, senders=None)
                if not self._commit():
                    break
        except _Timeout:
            self.truncated = True
            self.notes.append("resource cap exceeded; partial result")
        finally:
            _Val.table = {}
        return self._facts()

    def _check_time(self):
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _Timeout()

    def _fresh(self, reads: dict) -> bool:
        """Whether no commit has changed a cell of reads (key -> version)
        since it was read."""
        return all(self.versions.get(k, 0) == n for k, n in reads.items())

    def _commit(self) -> set:
        """Fold buffered writes into committed storage (deps stripped);
        returns the keys that gained a value or a greater depth."""
        changed = set()
        for key in sorted(self.buffer, key=expr_key):
            cell = self.storage.setdefault(key, {})
            for value, depth in self.buffer[key].items():
                if value not in cell or cell[value] < depth:
                    cell[value] = depth
                    changed.add(key)
        self.buffer = {}
        for key in changed:
            self.versions[key] = self.versions.get(key, 0) + 1
        return changed

    def _run_entry(self, fn: Function, senders: tuple[Expr, ...] | None):
        """Explore one entry point, unless the walk memo holds a walk of it
        that is still current. Its input values and sender alternatives are
        built on its first run and reused by every later one."""
        start = self.starts.get(fn.name)
        if start is None:
            start = self.starts[fn.name] = self._start(fn, senders)
        self._memo_walk(fn.name, fn, *start, entry_fn=fn, stack=(fn.name,))

    def _start(self, fn: Function, senders: tuple[Expr, ...] | None
               ) -> tuple[dict[str, tuple[_Val, ...]], list[_Alt]]:
        """The input env and the sender alternatives of an entry point."""
        seeds = seed_inputs(fn, self.contract, self.cfg)
        for (fname, pname), values in self.entry_seeds.items():
            if fname == fn.name:
                seeds[pname] = tuple(normalize(as_expr(v)) for v in values)
        sender_values = senders if senders is not None else seeds[SENDER_INPUT]
        alts = [
            _Alt(DependencyMap.of(transaction={SENDER_KEY: s}))
            for s in sender_values
        ]
        env: dict[str, tuple[_Val, ...]] = {}
        for pname, _ in fn.params:
            env[pname] = tuple(
                _Val(normalize(v), EMPTY, self.limit) for v in seeds[pname])
        return env, alts

    # -- function body ----------------------------------------------------

    def _memo_walk(self, key, fn: Function, entry_env, entry_alts,
                   entry_fn: Function, stack: tuple[str, ...]):
        """Walk fn, unless the walk memo holds a walk under key that read no
        cell a commit has changed since; either way that walk's reads join
        the running walk's."""
        reads = self.walk_memo.get(key)
        if reads is None or not self._fresh(reads):
            outer, self.reads = self.reads, {}
            self._walk(fn, entry_env, entry_alts, entry_fn, stack)
            reads = self.walk_memo[key] = self.reads
            self.reads = outer
        self.reads.update(reads)

    def _walk(self, fn: Function, entry_env, entry_alts, entry_fn: Function,
              stack: tuple[str, ...]):
        tracked = (self.tracked_locals[fn.name], self.tracked_tx[entry_fn.name])
        for pname, _ in fn.params:
            for val in entry_env[pname]:
                for alt in entry_alts:
                    self._record_inference(fn.name, tracked, pname, val.expr,
                                           alt.deps)
        self._check_time()
        env_in: dict[str, dict[str, tuple[_Val, ...]]] = {
            fn.entry_block: dict(entry_env)}
        alts_in: dict[str, list[_Alt]] = {fn.entry_block: list(entry_alts)}

        for block in self.topo[fn.name]:
            env = env_in.get(block.bid)
            alts = alts_in.get(block.bid, [])
            if env is None or not alts:
                continue
            self._check_time()
            env = dict(env)
            alts = self._cap_alts(alts)
            for stmt in block.statements:
                for alt in alts:
                    self._record_reach(fn.name, stmt.sid, alt.deps)
                alts = self._exec(fn, tracked, stmt, env, alts, entry_fn, stack,
                                  env_in, alts_in)
                if not alts:
                    break

    def _cap_alts(self, alts: list[_Alt]) -> list[_Alt]:
        alts = list(dict.fromkeys(alts))
        if len(alts) > self.cfg.max_alts_per_block:
            self.notes.append("alternative bound trimmed a block")
            alts = _trim(alts, self.cfg.max_alts_per_block)
        return alts

    # -- recording ---------------------------------------------------------

    def _record_inference(self, fname: str, tracked: Tracked, var: str,
                          value: Expr, deps: DependencyMap):
        assert value == normalize(value)
        # restrict(deps, budget, plan) == deps, without building a map
        keep_local, keep_tx = tracked
        assert (all(v in keep_local for v, _ in deps.local)
                and all(v in keep_tx for v, _ in deps.transaction)), \
            f"budget violation for {var}: {deps}"
        inf = Inference(fname, var, value, deps)
        if inf not in self.inferences:
            if len(self.inferences) >= self.cfg.max_inferences:
                raise _Timeout()
            self.inferences[inf] = None

    def _record_reach(self, fname: str, sid: int, deps: DependencyMap):
        self.reach.setdefault(ReachabilityFact(fname, sid, deps), None)

    def _call_row(self, stmt: Statement, fname: str, kind: str, n_args: int):
        key = (stmt.sid, fname, stmt.callee or stmt.op, kind)
        row = self.call_rows.get(key)
        if row is None:
            row = {"target": {}, "args": [dict() for _ in range(n_args)]}
            self.call_rows[key] = row
        return row

    # -- operand resolution -------------------------------------------------

    def _subst_val(self, val: _Val, alt: _Alt) -> _Val:
        """val under alt's solver substitution."""
        if not alt.subst:
            return val
        memo = self.subst_memo.get(alt.subst)
        if memo is None:
            memo = self.subst_memo[alt.subst] = (dict(alt.subst), {}, {})
        m, exprs, maps = memo
        expr = exprs.get(val.expr)
        if expr is None:
            expr = exprs[val.expr] = normalize(substitute(val.expr, m))
        deps = maps.get(val.deps)
        if deps is None:
            deps = maps[val.deps] = _subst_deps(val.deps, m)
        if expr is val.expr and deps is val.deps:
            return val
        return _Val(expr, deps, val.depth)

    def _resolve(self, var: str, vals: tuple, alt: _Alt, bind: bool) -> list:
        """The candidates of a variable operand holding vals under alt:
        (expr, contribution deps, depth). A tracked (bind) variable binds
        itself to each value, which drops a value that conflicts."""
        out = []
        for val in vals:
            v = self._subst_val(val, alt)
            d = v.deps
            if bind:
                d = _combine(self.combine_memo, d,
                             DependencyMap(((var, v.expr),), ()))
                if isinstance(d, Conflict):
                    continue
            out.append((v.expr, d, v.depth))
        return out

    def _level(self, var: str, env, alt: _Alt, tracked: Tracked) -> tuple:
        """The join level of a variable operand under alt: its candidates
        and their _DepIndex, memoized (see Mechanics)."""
        vals = env.get(var, ())
        bind = var in tracked[0]
        key = (var, id(vals), alt.subst, bind)
        hit = self.operand_memo.get(key)
        if hit is None:
            cands = self._resolve(var, vals, alt, bind)
            hit = self.operand_memo[key] = (
                vals, (cands, _DepIndex([c[1] for c in cands])))
        return hit[1]

    def _combos(self, operands, env, alts, tracked: Tracked,
                combined: bool = True):
        """All compatible assignments of values to the distinct operand vars,
        for each alternative in turn.

        Yields (alt, values by operand position, combined deps incl.
        alt.deps, depths by operand position), alternative-major and then
        in the lexicographic order of the operands' value lists. A
        duplicated variable operand takes the same value at every position.
        Constants and @name symbols are one candidate each, with no deps,
        so only the distinct variables are joined, through a bitset index
        of each one's values by their bindings: a value whose bindings
        conflict with the deps chosen so far is never visited. With
        combined false the deps are None, and the last combine is skipped.
        """
        variables = list(dict.fromkeys(
            op for op in operands if op.__class__ is str and op[0] != "@"))
        fixed = []  # the candidate of each constant and @name operand
        slots = []  # per operand position, its index in picks + fixed
        for op in operands:
            if op.__class__ is str and op[0] != "@":
                slots.append(variables.index(op))
                continue
            expr = op if op.__class__ is Const else contract_symbol(op[1:])
            slots.append(len(variables) + len(fixed))
            fixed.append((expr, EMPTY, self.limit))
        fixed = tuple(fixed)
        by_subst: dict = {}
        for alt in alts:
            self._check_time()
            levels = by_subst.get(alt.subst)
            if levels is None:
                levels = by_subst[alt.subst] = [
                    self._level(var, env, alt, tracked) for var in variables]
            for picks, d in _join(levels, alt.deps, self.combine_memo,
                                  combined):
                picks += fixed
                yield (alt, [picks[i][0] for i in slots], d,
                       [picks[i][2] for i in slots])

    def _bound_values(self, var: str, vals: list[_Val]) -> tuple[_Val, ...]:
        if len(vals) > self.cfg.max_values_per_var:
            self.notes.append(f"value bound trimmed {var}")
            vals = _trim(vals, self.cfg.max_values_per_var)
        return tuple(vals)

    # -- statement execution -------------------------------------------------

    def _exec(self, fn: Function, tracked: Tracked, stmt: Statement, env,
              alts: list[_Alt], entry_fn: Function, stack, env_in, alts_in
              ) -> list[_Alt]:
        """Execute stmt, or replay its memoized execution; returns the
        alternatives that continue past it."""
        op = stmt.op
        if op == "JUMP":
            bid = stmt.targets[0]
            self._flow_edge(_live_env(env, self.live_in[fn.name][bid]), alts,
                            bid, env_in, alts_in, tag=False)
            return []
        if op == "SSTORE":
            self._exec_sstore(fn, tracked, stmt, env, alts)
            return alts
        if op == "CALLINTERNAL":
            self._exec_internal(fn, tracked, stmt, env, alts, entry_fn, stack)
            return alts
        key = (stmt.sid, tuple(alts), tuple(self._inputs(fn, stmt, env)))
        rec = self.stmt_memo.get(key)
        if rec is not None and self._fresh(rec.reads):
            return self._replay(stmt, rec, env, env_in, alts_in)
        rec = self._run(fn, tracked, stmt, env, alts, env_in, alts_in)
        self.stmt_memo[key] = rec
        return rec.alts

    def _inputs(self, fn: Function, stmt: Statement, env) -> list:
        """(variable, values) of each variable stmt reads: its operands,
        and for a BRANCH every variable live at either target, in env's
        order (the order in which its edges carry them)."""
        inputs = [(o, env.get(o, ())) for o in stmt.operands
                  if o.__class__ is str]
        if stmt.op == "BRANCH":
            live = self.live_in[fn.name]
            crossing = live[stmt.targets[0]] | live[stmt.targets[1]]
            inputs += [item for item in env.items() if item[0] in crossing]
        return inputs

    def _replay(self, stmt: Statement, rec: _Replay, env, env_in, alts_in
                ) -> list[_Alt]:
        """Repeat the effects of a memoized execution that belong to the
        running walk. Its facts, notes and call rows are already recorded."""
        if rec.assigned is not None:
            env[stmt.result] = rec.assigned
        for payload, arm_alts, bid in rec.edges:
            _merge_edge(payload, arm_alts, bid, env_in, alts_in)
        self.reads.update(rec.reads)
        return rec.alts

    def _run(self, fn, tracked, stmt, env, alts, env_in, alts_in) -> _Replay:
        """Execute stmt (not a JUMP, SSTORE or CALLINTERNAL); returns what
        a replay of it needs."""
        op = stmt.op
        out, produced, edges, reads = alts, None, (), {}
        if op == "REQUIRE":
            out = self._gate(stmt.operands[0], env, alts, tracked,
                             want_true=True)
        elif op == "BRANCH":
            out = []
            edges = self._exec_branch(fn, tracked, stmt, env, alts, env_in,
                                      alts_in)
        elif op == "RETURN":
            out = []
            self._exec_return(fn, tracked, stmt, env, alts)
        elif op == "CONST":
            lit = normalize(stmt.operands[0])
            produced = [_Val(lit, alt.deps, self.limit) for alt in alts]
        elif op == "CALLER":
            produced = []
            for alt in alts:
                sender = alt.deps.sender()
                if sender is not None:
                    produced.append(_Val(sender, alt.deps, self.limit))
        elif op in ARITY:
            produced = self._exec_op(stmt, env, alts, tracked)
        elif op == "SLOAD":
            produced, reads = self._exec_sload(stmt, env, alts, tracked)
        elif op in ("CALLEXTERNAL", "TRANSFER", "SELFDESTRUCT", "DELEGATECALL"):
            self._exec_external(fn, tracked, stmt, env, alts)
            if op == "SELFDESTRUCT":
                out = []
        else:
            raise AssertionError(op)
        assigned = None
        if produced is not None and stmt.result is not None:
            assigned = self._assign(fn, tracked, stmt.result, env, produced)
        return _Replay(out, assigned, edges, reads)

    def _assign(self, fn, tracked, var: str, env, produced: list[_Val]
                ) -> tuple[_Val, ...]:
        vals = env[var] = self._bound_values(var, list(dict.fromkeys(produced)))
        for v in vals:
            self._record_inference(fn.name, tracked, var, v.expr, v.deps)
        return vals

    def _exec_op(self, stmt, env, alts, tracked) -> list[_Val]:
        arith = stmt.op in ARITH_OPS
        produced = []
        for _, vals, d, depths in self._combos(stmt.operands, env, alts, tracked):
            depth = min(depths)
            if arith and depth == 0:
                continue  # storage-cycle lineage exhausted
            produced.append(_Val(normalize(Op(stmt.op, *vals)), d, depth))
        return produced

    def _exec_sload(self, stmt, env, alts, tracked) -> tuple[list, dict]:
        """The loaded values, and the keys read (key -> version)."""
        produced = []
        read: dict[Expr, int] = {}
        for _, vals, d, _ in self._combos(stmt.operands, env, alts, tracked):
            key = vals[0]
            read[key] = self.versions.get(key, 0)
            cell = self.storage.get(key)
            if not cell:
                # never-written cell: EVM zero default
                produced.append(_Val(FALSE, d, self.limit))
                continue
            for value, depth in cell.items():
                produced.append(_Val(value, d, depth))
        self.reads.update(read)
        return produced, read

    def _exec_sstore(self, fn, tracked, stmt, env, alts):
        for _, vals, _, depths in self._combos(stmt.operands, env, alts,
                                               tracked, combined=False):
            key, value = vals[0], vals[1]
            self.stores.setdefault((fn.name, stmt.sid), None)
            stored_depth = depths[1] - 1
            if stored_depth < 0:
                continue  # value lineage stops propagating
            cell = self.buffer.setdefault(key, {})
            if value not in cell or cell[value] < stored_depth:
                cell[value] = stored_depth

    def _exec_return(self, fn, tracked, stmt, env, alts):
        if not stmt.operands:
            return
        rows = self.returns.setdefault(fn.name, {})
        for _, vals, d, _ in self._combos(stmt.operands, env, alts, tracked):
            rows.setdefault((vals[0], d), None)

    def _exec_external(self, fn, tracked, stmt, env, alts):
        if stmt.op == "CALLEXTERNAL":
            kind, n_args = "external", len(stmt.operands) - 1
        else:
            kind, n_args = "intrinsic", len(stmt.operands)
        row = self._call_row(stmt, fn.name, kind, n_args)
        for _, vals, d, _ in self._combos(stmt.operands, env, alts, tracked):
            if kind == "external":
                row["target"].setdefault((vals[0], d), None)
                args = vals[1:]
            else:
                args = vals
            for i, a in enumerate(args):
                row["args"][i].setdefault((a, d), None)

    def _exec_internal(self, fn, tracked, stmt, env, alts, entry_fn, stack):
        callee = self.contract.function(stmt.callee)
        if callee is None or callee.name in stack:
            self.notes.append(f"internal call to {stmt.callee} skipped")
            return
        on_stack = self.callees.intersection(stack)
        for alt, vals, d, depths in self._combos(stmt.operands, env, alts,
                                                 tracked):
            # entry-point arguments pinned on this path migrate into the
            # transaction dependencies under qualified keys
            tx = dict(d.transaction)
            if fn.name == entry_fn.name:
                for p, qualified in zip(entry_fn.param_names,
                                        self.tx_keys[entry_fn.name]):
                    bound = d.local_map.get(p)
                    if bound is not None:
                        tx.setdefault(qualified, bound)
            callee_alt = _Alt(DependencyMap.of(transaction=tx),
                              alt.pc, alt.subst)
            callee_env = {
                pname: (_Val(vals[i], EMPTY, depths[i]),)
                for i, (pname, _) in enumerate(callee.params)
            }
            key = (callee.name, tuple(vals), tuple(depths), callee_alt,
                   on_stack)
            self._memo_walk(key, callee, callee_env, [callee_alt], entry_fn,
                            stack + (callee.name,))

    # -- gating (REQUIRE and branch arms) -------------------------------------

    def _gate(self, cond_operand, env, alts, tracked,
              want_true: bool) -> list[_Alt]:
        out: list[_Alt] = []
        for alt, (cv,), d, _ in self._combos((cond_operand,), env, alts, tracked):
            target = cv if want_true else normalize(Op("NOT", cv))
            out.extend(self._admit(alt, d, target))
        return self._cap_alts(out)

    def _admit(self, alt: _Alt, d: DependencyMap, target: Expr) -> list[_Alt]:
        """Continue the flow through a condition that must hold.

        Concrete conditions decide directly; otherwise the path condition
        may already imply the target, or the solver may propose values for
        free symbols. An equality proposal is accepted only when it newly
        satisfies the condition (the implies check above failed), and its
        assignment is recorded by substituting into the dependency values
        and the per-flow substitution. Disequalities and comparisons over a
        free symbol are the easy-to-satisfy case: the flow continues with
        the symbol left unconstrained.
        """
        if isinstance(target, Const):
            return [_Alt(d, alt.pc, alt.subst)] if target.value != 0 else []
        if implies(_conjunction(alt.pc), target):
            return [_Alt(d, alt.pc, alt.subst)]
        out = []
        for sym in free_syms(target):
            for cand in value_for_var(sym, target):
                m = {sym: cand}
                merged = dict(alt.subst)
                merged[sym] = cand
                new_subst = tuple(sorted(merged.items(),
                                         key=lambda kv: kv[0].sort_key()))
                pc2 = alt.pc | {normalize(Op("EQ", sym, cand))}
                out.append(_Alt(_subst_deps(d, m), pc2, new_subst))
        if not out and _free_satisfiable(target):
            out.append(_Alt(d, alt.pc | {target}, alt.subst))
        return out

    # -- edges -----------------------------------------------------------------

    def _exec_branch(self, fn, tracked, stmt, env, alts, env_in, alts_in
                     ) -> list:
        """Flow env into both arms; returns the (payload, alternatives,
        target) of each edge that alternatives cross."""
        cond = stmt.operands[0]
        then_alts = self._gate(cond, env, alts, tracked, True)
        else_alts = self._gate(cond, env, alts, tracked, False)
        live = self.live_in[fn.name]
        edges = []
        for arm_alts, bid in zip((then_alts, else_alts), stmt.targets):
            payload = self._flow_edge(_live_env(env, live[bid]), arm_alts, bid,
                                      env_in, alts_in, tag=True)
            if payload is not None:
                edges.append((payload, arm_alts, bid))
        return edges

    def _flow_edge(self, env, alts: list[_Alt], target_bid: str, env_in,
                   alts_in, tag: bool) -> dict | None:
        """Carry env and alts to the target block (tagging env with alts on
        a branch edge); returns the env carried, or None when no alternative
        crosses the edge."""
        if not alts:
            return None
        if tag:
            # a value meets each alternative under that alternative's
            # substitution: substitute once per distinct substitution and
            # keep the index-compatible alternatives that carry it
            index = _DepIndex([a.deps for a in alts])
            groups: dict = {}  # subst -> (first alt carrying it, bitset)
            for j, alt in enumerate(alts):
                first, members = groups.get(alt.subst, (alt, 0))
                groups[alt.subst] = (first, members | 1 << j)
            tagged: dict[str, tuple[_Val, ...]] = {}
            for var, vals in env.items():
                keep: dict[_Val, None] = {}
                for val in vals:
                    self._check_time()
                    mask = 0
                    subbed = {}
                    for subst, (first, members) in groups.items():
                        v = subbed[subst] = self._subst_val(val, first)
                        mask |= index.compatible(v.deps) & members
                    for j in _bits(mask):
                        v = subbed[alts[j].subst]
                        d = _combine(self.combine_memo, v.deps, alts[j].deps)
                        keep.setdefault(_Val(v.expr, d, val.depth), None)
                if keep:
                    tagged[var] = self._bound_values(var, list(keep))
            payload = tagged
        else:
            payload = env
        _merge_edge(payload, alts, target_bid, env_in, alts_in)
        return payload

    # -- result ------------------------------------------------------------------

    def _facts(self) -> dict:
        """The collected facts as AnalysisResult fields, in engine order."""
        calls = []
        for (sid, fname, callee, kind), row in sorted(self.call_rows.items()):
            calls.append(CallSite(
                stmt=sid, function=fname, callee=callee, kind=kind,
                target_values=tuple(row["target"]),
                arg_values=tuple(tuple(pos) for pos in row["args"]),
            ))
        storage = []
        for key in sorted(self.storage, key=expr_key):
            for value, depth in sorted(self.storage[key].items(),
                                       key=lambda kv: kv[0].sort_key()):
                storage.append((key, value, depth))
        return dict(
            inferences=tuple(self.inferences),
            reachability=tuple(self.reach),
            calls=tuple(calls),
            stores=tuple(self.stores),
            returns={f: tuple(rows) for f, rows in self.returns.items()},
            storage=tuple(storage),
            truncated=self.truncated,
            notes=tuple(dict.fromkeys(self.notes)),
        )


def _merge_edge(payload, alts: list[_Alt], target_bid: str, env_in, alts_in):
    """Merge an edge's env and alternatives into those of its target."""
    dest = env_in.setdefault(target_bid, {})
    for var, vals in payload.items():
        merged: dict[_Val, None] = {}
        for v in dest.get(var, ()):
            merged.setdefault(v, None)
        for v in vals:
            merged.setdefault(v, None)
        dest[var] = tuple(merged)
    alts_in.setdefault(target_bid, []).extend(alts)


def assemble(contract: Contract, config: AnalysisConfig,
             facts: Mapping) -> AnalysisResult:
    """The analysis result of a contract: the facts an engine run
    collected (_Engine._facts), fresh or read back from a cache, plus the
    structure of the parsed contract (function names and flow_after)."""
    after: dict[int, frozenset] = {}
    for f in contract.functions:
        after.update(flow_after(f))
    return AnalysisResult(
        contract=contract.name,
        config=config,
        functions=tuple(f.name for f in contract.functions),
        flow_after=after,
        **facts,
    )


def _subst_deps(d: DependencyMap, m: dict) -> DependencyMap:
    """d with the solver assignment m substituted into its values (d
    itself, interned, when no value changes)."""
    return DependencyMap(
        tuple((v, normalize(substitute(x, m))) for v, x in d.local),
        tuple((v, normalize(substitute(x, m))) for v, x in d.transaction))


def _conjunction(pc: frozenset) -> Expr:
    if not pc:
        return TRUE
    out = None
    for e in sorted(pc, key=expr_key):
        out = e if out is None else Op("AND", out, e)
    return out


def _free_satisfiable(target: Expr) -> bool:
    """A free symbol can make the (normalized, undecided) condition hold
    without committing to a particular value: disequalities and order
    comparisons, unlike equalities, admit almost every value.
    """
    op = target.op
    if op == "NOT":
        return bool(free_syms(target.args[0]))
    if op == "LT":
        return bool(free_syms(target))
    if op == "OR":
        left, right = target.args
        return _free_satisfiable(left) or _free_satisfiable(right)
    if op == "AND":
        left, right = target.args
        return _free_satisfiable(left) and _free_satisfiable(right)
    return False


def analyze(contract: Contract, config: AnalysisConfig | None = None,
            entry_seeds: SeedOverrides | None = None) -> AnalysisResult:
    """Run the symvalic analysis of one contract to fixpoint.

    entry_seeds optionally replaces the default seed set for selected
    (function, parameter) pairs; everything else follows seed_inputs.
    """
    cfg = config or AnalysisConfig()
    return assemble(contract, cfg, _Engine(contract, cfg, entry_seeds).run())


# ---------------------------------------------------------------------------
# The result document (schema symvalic-result/1)
# ---------------------------------------------------------------------------

RESULT_SCHEMA_ID = "symvalic-result/1"

_first3 = itemgetter(0, 1, 2)
_first5 = itemgetter(0, 1, 2, 3, 4)
_int = int.__repr__  # as json.dumps writes an int


def _pad(level: int) -> str:
    return "\n" + "  " * level


def _block(level: int, items: list, brackets: str = "[]") -> str:
    """A JSON array nested `level` deep of already written items, or with
    brackets "{}" an object of already written '"key": value' members."""
    if not items:
        return brackets
    inner = _pad(level + 1)
    return (brackets[0] + inner + ("," + inner).join(items) + _pad(level)
            + brackets[1])


@lru_cache(maxsize=None)
def _layout(level: int, keys: tuple[str, ...]) -> str:
    """A str.format template of a JSON object nested `level` deep whose
    members are keys (ASCII, sorted), with one slot for each value."""
    inner = _pad(level + 1)
    return ("{{" + inner + ("," + inner).join(f'"{key}": {{}}' for key in keys)
            + _pad(level) + "}}")


def _result_text(r: AnalysisResult) -> str:
    """The result document exactly as json.dumps(doc, indent=2,
    sort_keys=True) lays it out, written straight from the records. Rows
    are sorted by their fields, with a dependency map compared by
    Python's str() of its local and tx dicts."""
    # DependencyMap -> (str(local), str(tx), {level: (local text, tx text)},
    # (local, tx))
    maps: dict = {}

    def deps(d: DependencyMap) -> tuple:
        entry = maps.get(d)
        if entry is None:
            # dicts, so that a repeated variable collapses as in a dict
            local = {var: e.render() for var, e in d.local}
            tx = {var: e.render() for var, e in d.transaction}
            entry = maps[d] = (str(local), str(tx), {}, (local, tx))
        return entry

    def deps_text(entry: tuple, level: int) -> tuple:
        """The local and tx objects of a map nested `level` deep."""
        texts = entry[2].get(level)
        if texts is None:
            texts = entry[2][level] = tuple(
                _block(level, [_str(var) + ": " + _str(value)
                               for var, value in sorted(side.items())], "{}")
                for side in entry[3])
        return texts

    def values(rows, level: int) -> str:
        keyed = []
        for v, d in rows:
            entry = deps(d)
            keyed.append((v.render(), entry[0], entry[1], entry))
        keyed.sort(key=_first3)
        row = _layout(level + 1, ("local", "tx", "value")).format
        return _block(level, [row(*deps_text(entry, level + 2), _str(v))
                              for v, _, _, entry in keyed])

    keyed = []
    for i in r.inferences:
        entry = deps(i.deps)
        keyed.append((i.function, i.var, i.value.render(), entry[0],
                      entry[1], entry))
    keyed.sort(key=_first5)
    row = _layout(2, ("function", "local", "tx", "value", "var")).format
    inferences = _block(1, [
        row(_str(fname), *deps_text(entry, 3), _str(value), _str(var))
        for fname, var, value, _, _, entry in keyed])

    keyed = []
    for f in r.reachability:
        entry = deps(f.deps)
        keyed.append((f.stmt, entry[0], entry[1], f.function, entry))
    keyed.sort(key=_first3)
    row = _layout(2, ("function", "local", "stmt", "tx")).format
    reach = []
    for stmt, _, _, fname, entry in keyed:
        local, tx = deps_text(entry, 3)
        reach.append(row(_str(fname), local, _int(stmt), tx))

    row = _layout(2, ("args", "callee", "function", "kind", "stmt",
                      "target")).format
    calls = [row(_block(3, [values(pos, 4) for pos in c.arg_values]),
                 _str(c.callee), _str(c.function), _str(c.kind),
                 _int(c.stmt), values(c.target_values, 3))
             for c in r.calls]

    row = _layout(2, ("address", "depth", "value")).format
    storage = [row(_str(a.render()), _int(depth), _str(v.render()))
               for a, v, depth in r.storage]

    cfg = r.config
    config = _layout(1, ("arithDepth", "depArgs", "depStorageLoads",
                         "depTxArgs", "seed", "txRounds")).format(*map(_int, (
        cfg.arithmetic_depth_limit, cfg.budget.local_args,
        cfg.budget.storage_loads, cfg.budget.tx_args, cfg.seed,
        cfg.transaction_rounds)))
    return _layout(0, (
        "config", "contract", "externalCalls", "inferences", "notes",
        "reachability", "returns", "schema", "storage", "truncated",
    )).format(
        config,
        _str(r.contract),
        _block(1, calls),
        inferences,
        _block(1, [_str(note) for note in r.notes]),
        _block(1, reach),
        _block(1, [_str(fname) + ": " + values(r.returns[fname], 2)
                   for fname in sorted(r.returns)], "{}"),
        _str(RESULT_SCHEMA_ID),
        _block(1, storage),
        "true" if r.truncated else "false",
    )
