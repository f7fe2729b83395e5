"""Symbolic expression algebra and the three reasoner predicates.

Expressions are immutable trees over 256-bit unsigned wraparound arithmetic,
of three node kinds: a concrete constant (Const), a symbolic variable, bound
or free (Sym), and an operator applied to its operands (Op). ARITY names
every operator and its operand count: the binary operators of BINOPS, NOT,
and the two storage-addressing operators SHA3 and CONCAT. SHA3 is kept
uninterpreted and assumed injective on byte images; a CONCAT is the
juxtaposition of its operands' byte images, and as a number its low word.

The reasoner exposes:

  normalize(e)          -- minimal equivalent form (total, idempotent)
  implies(strong, weak) -- True only if provable; False means "unknown"
  value_for_var(v, c)   -- candidate assignments for a free symbol making c true
  eval_concrete(e, ...) -- reference 256-bit evaluator (test oracle)

All four are pure; normalize is memoized but observationally pure.

Expressions are hash-consed (Filliatre & Conchon, "Type-Safe Modular
Hash-Consing", 2006): a constant is interned on its value, a symbol on its
name and bound flag, and an operator node on its operator and the identity
of its operands, so building a value that exists returns the existing node.
Equality is therefore identity and hashing is object.__hash__, both in C,
whatever the size of the tree. The tables live for the process and are
never emptied: every node built stays, about 245 bytes for an operator
node with its table entry and 240 for a constant, and sharing pays for it
(each distinct value is one node however often it is built). An operator
node keeps its normal form and its sort key in slots once computed, so
normalize's memo and the sort keys last as long as the nodes. Identity
hashes follow memory addresses, so no output may depend on the iteration
order of a set of nodes: such a set is sorted (expr_key) before anything
printed is built from it.

Every node stores its depth when it is built. Depth is bounded by
MAX_EXPR_DEPTH: building a deeper node raises ValueError with a fixed
message, because the recursive walks over a tree (render, sort_key,
normalize, pickling) must finish within Python's stack.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping

WORD_BITS = 256
WORD = 1 << WORD_BITS
MASK = WORD - 1
ADDRESS_BITS = 160
ADDRESS_BOUND = 1 << ADDRESS_BITS

ARITH_OPS = ("ADD", "SUB", "MUL", "DIV", "MOD")
CMP_OPS = ("LT", "GT", "EQ")
LOGIC_OPS = ("AND", "OR")
BINOPS = ARITH_OPS + CMP_OPS + LOGIC_OPS
ASSOCIATIVE = {"ADD", "MUL", "AND", "OR"}
# every operator's name and operand count
ARITY = {**dict.fromkeys(BINOPS, 2), "NOT": 1, "SHA3": 1, "CONCAT": 2}


# The deepest tree a node may root, counting a leaf as 1. Building a
# deeper node raises ValueError (see Op). Every walk over a tree recurses
# once per level or more: render, sort_key, normalize and pickling. At this
# bound each of them still works when called 250 frames deep under Python's
# default recursion limit, which leaves room for the engine's own stack
# (internal calls nest); at 500, pickling and normalize exhaust the limit
# from a shallow stack.
MAX_EXPR_DEPTH = 256

# A constant prints in decimal below this and in hex at or above it: hashes,
# masks and 2^256-1 read better in hex, counts and amounts in decimal.
HEX_FROM = 1 << 64


class Expr:
    """Base class for expression nodes.

    Nodes are immutable and interned: each value has exactly one node, which
    its constructor returns every time, so equality is identity and hashing
    is object.__hash__, both done in C. Each node stores its depth, the
    number of nodes on its longest path to a leaf, when built. The tables
    of nodes live for the process (see the module docstring). Pickling and
    copying go through the constructor, so an unpickled node is the
    interned one.
    Building a node deeper than MAX_EXPR_DEPTH raises ValueError with one
    fixed message, so an analysis whose values grow too deep fails the same
    way on every path, instead of wherever some recursive walk over the tree
    happens to exhaust the stack.
    """

    __slots__ = ()
    depth = 1  # a leaf's; operator nodes store theirs
    op = None  # a leaf's; an operator node's is its name
    args: tuple = ()  # a leaf's; an operator node's are its operands

    def render(self) -> str:
        """Canonical printed form, e.g. SHA3(CONCAT(<<owner>>, 0)), a
        function of the node's value alone."""
        raise NotImplementedError

    def sort_key(self) -> tuple:
        """Total order: Const < Sym < Op, then structural. A leaf stores its
        key when built, an operator node when first asked."""
        return self.key

    def walk(self) -> Iterator["Expr"]:
        yield self
        for c in self.args:
            yield from c.walk()

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Expr[{self.render()}]"


# The interning tables: a constant's value, a symbol's (name, bound) and an
# operator node's (op, *args) -> its node. Entries are never removed.
_consts: dict[int, "Const"] = {}
_syms: dict[tuple, "Sym"] = {}
_ops: dict[tuple, "Op"] = {}


class Const(Expr):
    """Concrete 256-bit value. It prints in decimal below HEX_FROM and in
    lowercase hex at or above it, however the source spelled it."""

    __slots__ = ("value", "key")

    def __new__(cls, value: int):
        self = _consts.get(value)
        if self is None:
            if not (0 <= value < WORD):
                raise ValueError(f"constant out of 256-bit range: {value}")
            self = _consts[value] = object.__new__(cls)
            self.value = value
            self.key = (0, value)
        return self

    def __reduce__(self):
        return Const, (self.value,)

    def render(self) -> str:
        v = self.value
        return str(v) if v < HEX_FROM else hex(v)


class Sym(Expr):
    """Symbolic variable. Bound symbols model fixed identities the caller
    cannot choose; free symbols may be concretized by the solver."""

    __slots__ = ("name", "bound", "key")

    def __new__(cls, name: str, bound: bool):
        key = (name, bound)
        self = _syms.get(key)
        if self is None:
            self = _syms[key] = object.__new__(cls)
            self.name = name
            self.bound = bound
            self.key = (1, name)
        return self

    def __reduce__(self):
        return Sym, (self.name, self.bound)

    def render(self) -> str:
        return self.name


class Op(Expr):
    """An operator applied to its operands, e.g. Op("ADD", x, y) or
    Op("SHA3", x): op is a key of ARITY and args holds ARITY[op]
    expressions. The constructor is the one place that knows which
    operators exist and how many operands (one or two) each takes. The
    methods spell out both counts: a comprehension over args would take a
    stack frame a level, halving how deep a stack can walk a tree.

    Beside its fields a node keeps two slots that start as None and are
    filled when first needed: key, its sort_key, and norm, its normal form
    (see normalize)."""

    __slots__ = ("op", "args", "depth", "key", "norm")

    def __new__(cls, op: str, *args: Expr):
        key = (op, *args)
        self = _ops.get(key)
        if self is not None:
            return self
        if ARITY.get(op) != len(args):
            raise ValueError(f"no operator {op} of {len(args)} operands")
        if len(args) == 2:
            left, right = args
            depth = (left.depth if left.depth > right.depth
                     else right.depth) + 1
        else:
            depth = args[0].depth + 1
        if depth > MAX_EXPR_DEPTH:
            raise ValueError(f"expression nested deeper than {MAX_EXPR_DEPTH}")
        self = _ops[key] = object.__new__(cls)
        self.op = op
        self.args = args
        self.depth = depth
        self.key = self.norm = None
        return self

    def __reduce__(self):
        return Op, (self.op, *self.args)

    def render(self) -> str:
        x = self.args
        if len(x) == 2:
            return f"{self.op}({x[0].render()}, {x[1].render()})"
        return f"{self.op}({x[0].render()})"

    def sort_key(self) -> tuple:
        key = self.key
        if key is None:
            x = self.args
            if len(x) == 2:
                key = (2, self.op, x[0].sort_key(), x[1].sort_key())
            else:
                key = (2, self.op, x[0].sort_key())
            self.key = key
        return key


TRUE = Const(1)
FALSE = Const(0)

# The four distinguished identity symbols.
OWNER = Sym("<<owner>>", bound=True)
UNPRIVILEGED_USER = Sym("<<unprivileged-user>>", bound=True)
OWNER_UNIQUE = Sym("<<owner-unique-value>>", bound=False)
USER_UNIQUE = Sym("<<user-unique-value>>", bound=False)

FREE_IDENTITY_SYMBOLS = (OWNER_UNIQUE, USER_UNIQUE)


def contract_symbol(name: str) -> Sym:
    """Opaque bound symbol for an external contract referenced by name."""
    return Sym(f"<<contract:{name}>>", bound=True)


def expr_key(e: Expr) -> tuple:
    """Sort key usable on heterogeneous Expr collections."""
    return e.sort_key()


def is_truthy_const(e: Expr) -> bool:
    return isinstance(e, Const) and e.value != 0


def is_falsy_const(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0


def free_syms(e: Expr) -> tuple[Sym, ...]:
    """Free symbolic variables of e, deduplicated, in canonical order."""
    seen = {n for n in e.walk() if isinstance(n, Sym) and not n.bound}
    return tuple(sorted(seen, key=expr_key))


def contains_sym(e: Expr, sym: Sym) -> bool:
    return any(n == sym for n in e.walk())


def substitute(e: Expr, mapping: Mapping[Sym, Expr]) -> Expr:
    """Replace symbols per mapping. Result is not normalized. A node none
    of whose children changed comes back as itself, not as a copy."""
    if not mapping:
        return e
    if e.op is None:
        return mapping.get(e, e) if e.__class__ is Sym else e
    x = e.args
    first = substitute(x[0], mapping)
    if len(x) == 1:
        return e if first is x[0] else Op(e.op, first)
    second = substitute(x[1], mapping)
    if first is x[0] and second is x[1]:
        return e
    return Op(e.op, first, second)


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------


def normalize(e: Expr) -> Expr:
    """Minimal equivalent form under 256-bit wraparound semantics.

    Guarantees: constant subterms folded (no binary operator with two
    constant operands), commutative operands canonically ordered, the
    standard identities applied (x+0, x*1, x*0, x-x, x&&true, x&&false,
    !!x, x==x; a logical identity whose operand may be neither 0 nor 1
    keeps AND(1, x)) plus sound extras: associative const gathering for
    ADD/MUL, GT -> swapped LT, unsigned facts (x<0 is false, x%1 is 0),
    SHA3 injectivity peeling, and disequality of distinct bound identity
    symbols.
    """
    if e.op is None:
        return e  # leaves are their own normal form
    result = e.norm
    if result is None:
        result = e.norm = _normalize(e)
        if result.op is not None:
            result.norm = result
    return result


def _normalize(e: Op) -> Expr:
    op = e.op
    args = []
    for a in e.args:
        args.append(normalize(a))
    if op == "SHA3" or op == "CONCAT":
        return Op(op, *args)
    if op == "NOT":
        x = args[0]
        if isinstance(x, Const):
            return FALSE if x.value != 0 else TRUE
        if x.op == "NOT":
            return _as_bool(x.args[0])
        return Op("NOT", x)
    left, right = args
    if op == "GT":
        return _norm_binop("LT", right, left)
    return _norm_binop(op, left, right)


def _norm_binop(op: str, left: Expr, right: Expr) -> Expr:
    """Normalize a binary operator whose operands are already normalized."""
    if op in ASSOCIATIVE:
        return _rebuild_assoc(op, left, right)

    if isinstance(left, Const) and isinstance(right, Const):
        return Const(_fold(op, left.value, right.value))

    if op == "SUB":
        if is_falsy_const(right):
            return _as_word(left)
        if left == right:
            return FALSE
    elif op == "DIV":
        if is_falsy_const(right) or is_falsy_const(left):
            return FALSE
        if isinstance(right, Const) and right.value == 1:
            return _as_word(left)
    elif op == "MOD":
        if isinstance(right, Const) and right.value <= 1:
            return FALSE
        if is_falsy_const(left) or left == right:
            return FALSE
    elif op == "LT":
        if is_falsy_const(right) or left == right:
            return FALSE
    elif op == "EQ":
        folded = _norm_eq(left, right)
        if folded is not None:
            return folded
        if right.sort_key() < left.sort_key():
            left, right = right, left
    return Op(op, left, right)


def _norm_eq(left: Expr, right: Expr) -> Expr | None:
    if left == right:
        return TRUE
    if isinstance(left, Sym) and isinstance(right, Sym) and left.bound and right.bound:
        # Distinct bound identities never coincide (modeling axiom).
        return FALSE
    if left.op == "SHA3" and right.op == "SHA3":
        # SHA3 assumed injective: the byte images are equal, word by word;
        # images of different lengths never are. A bare CONCAT is a number
        # (its low word), so EQ(CONCAT, CONCAT) is not peeled.
        left_words = _image_words(left.args[0])
        right_words = _image_words(right.args[0])
        if len(left_words) != len(right_words):
            return FALSE
        out: Expr = Op("EQ", left_words[0], right_words[0])
        for a, b in zip(left_words[1:], right_words[1:]):
            out = Op("AND", out, Op("EQ", a, b))
        return normalize(out)
    return None


def _image_words(e: Expr) -> list:
    """The 32-byte words whose juxtaposition is e's byte image."""
    if e.op == "CONCAT":
        return _image_words(e.args[0]) + _image_words(e.args[1])
    return [e]


def _assoc_leaves(op: str, e: Expr) -> Iterator[Expr]:
    if e.op == op:
        yield from _assoc_leaves(op, e.args[0])
        yield from _assoc_leaves(op, e.args[1])
    else:
        yield e


def _rebuild_assoc(op: str, left: Expr, right: Expr) -> Expr:
    """Flatten an ADD/MUL/AND/OR chain, fold constants, apply identities,
    and rebuild with sorted operands (confluent canonical form)."""
    leaves = list(_assoc_leaves(op, left)) + list(_assoc_leaves(op, right))
    if op in ("ADD", "MUL"):
        acc = 0 if op == "ADD" else 1
        rest = []
        for leaf in leaves:
            if isinstance(leaf, Const):
                acc = _fold(op, acc, leaf.value)
            else:
                rest.append(leaf)
        if op == "MUL" and acc == 0:
            return FALSE
        if not rest:
            return Const(acc)
        if (op == "ADD" and acc != 0) or (op == "MUL" and acc != 1):
            rest.append(Const(acc))
    else:
        absorber = op == "OR"  # a truthy leaf absorbs OR; falsy absorbs AND
        rest = []
        seen = set()
        for leaf in leaves:
            if isinstance(leaf, Const):
                if (leaf.value != 0) == absorber:
                    return TRUE if absorber else FALSE
                continue  # neutral constant drops out
            if leaf not in seen:  # x && x -> x (boolean idempotence)
                seen.add(leaf)
                rest.append(leaf)
        if not rest:
            return FALSE if absorber else TRUE
    if len(rest) == 1:
        return _as_word(rest[0]) if op in ("ADD", "MUL") else _as_bool(rest[0])
    rest.sort(key=expr_key)
    depth = rest[0].depth
    for leaf in rest[1:]:
        depth = (depth if depth > leaf.depth else leaf.depth) + 1
    if depth > MAX_EXPR_DEPTH:
        return _balanced(op, rest)
    out = rest[0]
    for leaf in rest[1:]:
        out = Op(op, out, leaf)
    return out


def _balanced(op: str, leaves: list) -> Expr:
    """The chain of leaves, in order, as a balanced tree: the form of a
    chain too deep to build left-deep. Its leaves come out of
    _assoc_leaves in the same order, so it normalizes to itself."""
    if len(leaves) == 1:
        return leaves[0]
    half = len(leaves) // 2
    return Op(op, _balanced(op, leaves[:half]), _balanced(op, leaves[half:]))


def _as_word(e: Expr) -> Expr:
    """e as the result of an arithmetic identity (x+0, x*1, x-0, x/1).
    A CONCAT keeps a word operation around it: as a number it is its low
    word, but inside SHA3 or CONCAT its byte image is the juxtaposition."""
    if e.op == "CONCAT":
        return Op("ADD", e, FALSE)
    return e


def _as_bool(e: Expr) -> Expr:
    """e as the result of a logical identity (x&&1, x||0, x&&x, !!x). A
    value that may be neither 0 nor 1 keeps the canonical 0/1 conversion
    AND(1, e) around it: the identities hold only for truth values."""
    if _is_bool(e):
        return e
    return Op("AND", TRUE, e)


def _is_bool(e: Expr) -> bool:
    """e evaluates to 0 or 1 under every assignment."""
    if isinstance(e, Const):
        return e.value <= 1
    return e.op in CMP_OPS or e.op in LOGIC_OPS or e.op == "NOT"


def _fold(op: str, a: int, b: int) -> int:
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
        return int(a < b)
    if op == "GT":
        return int(a > b)
    if op == "EQ":
        return int(a == b)
    if op == "AND":
        return int(a != 0 and b != 0)
    if op == "OR":
        return int(a != 0 or b != 0)
    raise AssertionError(op)


# ---------------------------------------------------------------------------
# implies
# ---------------------------------------------------------------------------


def conjuncts(e: Expr) -> tuple[Expr, ...]:
    """Flatten a normalized AND tree into its conjuncts."""
    return tuple(_assoc_leaves("AND", e))


def implies(strong: Expr, weak: Expr) -> bool:
    """Prove strong => weak for every concrete assignment.

    Deliberately incomplete: returns True only when a cheap syntactic
    argument exists (normalization, conjunct subsumption, interval facts
    on single comparisons against constants). False means "unknown".
    """
    s = normalize(strong)
    w = normalize(weak)
    if is_falsy_const(s) or is_truthy_const(w):
        return True
    if s == w:
        return True
    if s.op == "OR":
        left, right = s.args
        return implies(left, w) and implies(right, w)
    have = conjuncts(s)
    if any(is_falsy_const(c) for c in have):
        return True
    return all(_prove_one(have, c) for c in conjuncts(w))


def _prove_one(have: tuple[Expr, ...], goal: Expr) -> bool:
    if is_truthy_const(goal):
        return True
    if goal in have:
        return True
    if goal.op == "OR":
        return any(_prove_one(have, d) for d in _assoc_leaves("OR", goal))
    return _prove_interval(have, goal)


def _cmp_shape(e: Expr):
    """Decompose a comparison against a constant: (subject, 'lt'|'gt'|'eq', k)."""
    if e.op == "LT" or e.op == "EQ":
        left, right = e.args
        if isinstance(left, Const) and not isinstance(right, Const):
            return (right, "gt" if e.op == "LT" else "eq", left.value)
        if (e.op == "LT" and isinstance(right, Const)
                and not isinstance(left, Const)):
            return (left, "lt", right.value)
    return None


def _prove_interval(have: tuple[Expr, ...], goal: Expr) -> bool:
    g = _cmp_shape(goal)
    if g is None:
        return False
    subject, rel, k = g
    for h in have:
        hs = _cmp_shape(h)
        if hs is None or hs[0] != subject:
            continue
        _, hrel, hk = hs
        if rel == "lt" and ((hrel == "lt" and hk <= k) or (hrel == "eq" and hk < k)):
            return True
        if rel == "gt" and ((hrel == "gt" and hk >= k) or (hrel == "eq" and hk > k)):
            return True
        if rel == "eq" and hrel == "eq" and hk == k:
            return True
    return False


# ---------------------------------------------------------------------------
# value_for_var
# ---------------------------------------------------------------------------


def value_for_var(var: Sym, constraint: Expr) -> tuple[Expr, ...]:
    """Candidate assignments for free symbol var that satisfy constraint.

    Candidates come from equalities (the productive case); each one is
    verified by substitution + normalization before being returned. The
    result may be empty (the predicate is incomplete by design).
    """
    if var.bound:
        raise ValueError(f"value_for_var requires a free symbol, got {var.name}")
    c = normalize(constraint)
    out: list[Expr] = []
    seen: set[Expr] = set()
    for cand in _equality_candidates(var, c):
        if cand in seen:
            continue
        seen.add(cand)
        if is_truthy_const(normalize(substitute(c, {var: cand}))):
            out.append(cand)
    out.sort(key=expr_key)
    return tuple(out)


def _equality_candidates(var: Sym, c: Expr) -> Iterator[Expr]:
    if c.op == "EQ":
        left, right = c.args
        if left == var and not contains_sym(right, var):
            yield right
        if right == var and not contains_sym(left, var):
            yield left
    elif c.op == "AND" or c.op == "OR":
        for a in c.args:
            yield from _equality_candidates(var, a)


# ---------------------------------------------------------------------------
# eval_concrete
# ---------------------------------------------------------------------------

HashOracle = Callable[[bytes], bytes]


def default_hash_oracle(data: bytes) -> bytes:
    """Fixed cryptographic hash standing in for Keccak-256."""
    # imported here: hashlib loads OpenSSL (_hashlib), which would cost
    # every process start-up, and only eval_concrete hashes
    import hashlib
    return hashlib.sha3_256(data).digest()


Assignment = Mapping[str, int]
# the operators eval_concrete folds after evaluating both operands
_EAGER_OPS = frozenset(ARITH_OPS + CMP_OPS)


def eval_concrete(
    e: Expr,
    assignment: Assignment,
    hash_oracle: HashOracle = default_hash_oracle,
) -> int:
    """Evaluate e to a 256-bit integer under a total symbol assignment.

    Booleans are 0/1; DIV/MOD by zero yield 0; SHA3 hashes the byte image
    of its operand (constants and symbols as 32-byte big-endian words,
    CONCAT as juxtaposition). Raises KeyError if a symbol is unassigned.
    """
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Sym):
        return assignment[e.name] & MASK
    op = e.op
    if op in _EAGER_OPS:
        left, right = e.args
        return _fold(op, eval_concrete(left, assignment, hash_oracle),
                     eval_concrete(right, assignment, hash_oracle))
    if op == "AND":  # short-circuit; same result, total either way
        if eval_concrete(e.args[0], assignment, hash_oracle) == 0:
            return 0
        return int(eval_concrete(e.args[1], assignment, hash_oracle) != 0)
    if op == "OR":
        if eval_concrete(e.args[0], assignment, hash_oracle) != 0:
            return 1
        return int(eval_concrete(e.args[1], assignment, hash_oracle) != 0)
    if op == "NOT":
        return int(eval_concrete(e.args[0], assignment, hash_oracle) == 0)
    if op == "SHA3":
        img = _byte_image(e.args[0], assignment, hash_oracle)
        return int.from_bytes(hash_oracle(img), "big") & MASK
    img = _byte_image(e, assignment, hash_oracle)  # CONCAT
    return int.from_bytes(img, "big") & MASK


def _byte_image(e: Expr, assignment: Assignment, hash_oracle: HashOracle) -> bytes:
    if e.op == "CONCAT":
        return (_byte_image(e.args[0], assignment, hash_oracle)
                + _byte_image(e.args[1], assignment, hash_oracle))
    if e.op == "SHA3":
        return hash_oracle(_byte_image(e.args[0], assignment, hash_oracle))
    return eval_concrete(e, assignment, hash_oracle).to_bytes(32, "big")


ExprLike = Expr | int


def as_expr(v: ExprLike) -> Expr:
    """Coerce an int to a Const; pass Exprs through."""
    if isinstance(v, Expr):
        return v
    return Const(v & MASK)
