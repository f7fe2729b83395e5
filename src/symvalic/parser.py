"""Surface-format (.svc) parser and lowering to the contract IR.

Grammar (keywords bit-exact):

    contract NAME { storage-decl* function-decl* }
    storage-decl  := ("address" | "uint" | "mapping") NAME ";"
    function-decl := "function" NAME "(" params ")" ("public"|"internal")
                     "{" stmt* "}"
    stmt := NAME "=" expr ";"
          | NAME "[" expr "]" "=" expr ";"
          | "require" "(" expr ")" ";"
          | "if" "(" expr ")" "{" stmt* "}" ["else" "{" stmt* "}"]
          | "call" NAME "." NAME "(" args ")" ";"      -- external call
          | "call" NAME "(" args ")" ";"               -- internal call
          | "transfer" "(" expr "," expr ")" ";"
          | "selfdestruct" "(" expr ")" ";"
          | "delegatecall" "(" expr ")" ";"
          | "return" [expr] ";"

Expressions: `+ - * / % < > == && || !`, decimal/0x literals, msg.sender,
NAME, NAME[expr], parentheses. Storage slots are assigned in declaration
order from 0. A function named `constructor` is the initializer.

Lowering records each literal it turns into a Const operand as a
`LiteralUse`, in emission order, with its address position: a flag passed
down the lowering walk. A literal stands in an address position when it is
a mapping key (read or write), the first argument of transfer, selfdestruct
or delegatecall, a side of an `==` whose other side is address-typed, or
the value assigned to address-typed storage or to a local that an earlier
assignment made address-typed. The operands of any other operator, of `!`,
call arguments and returned values are not address positions.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from .ir import (
    CONSTRUCTOR_NAME, BasicBlock, Contract, Function, IRError, LiteralUse,
    Statement, StorageDecl, TEMP_NAME, validate,
)
from .symexpr import Const, WORD


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


def diagnostic(path, err: Exception) -> str:
    """The one-line diagnostic for a failed input or output: `path:line:col:
    message` for a parse error, `path: message` otherwise. Python words a
    RecursionError by where the stack ran out, so its line is fixed."""
    if isinstance(err, ParseError):
        return f"{path}:{err}"
    if isinstance(err, RecursionError):
        return f"{path}: maximum recursion depth exceeded"
    return f"{path}: {err}"


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

KEYWORDS = {
    "contract", "address", "uint", "bool", "mapping", "function", "public",
    "internal", "require", "if", "else", "call", "transfer", "selfdestruct",
    "delegatecall", "return", "msg",
}

PUNCT = ("&&", "||", "==", "{", "}", "(", ")", "[", "]", ";", ",", ".",
         "=", "+", "-", "*", "/", "%", "<", ">", "!")


class Token(NamedTuple):
    kind: str  # "ident" | "keyword" | "number" | "punct" | "eof"
    text: str
    value: int = 0
    hex_form: bool = False
    line: int = 0
    col: int = 0


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in "0123456789":  # str.isdigit takes other scripts' digits too
            start, scol = i, col
            if text.startswith("0x", i) or text.startswith("0X", i):
                i += 2
                while i < n and text[i] in "0123456789abcdefABCDEF":
                    i += 1
                lit = text[start:i]
                if len(lit) == 2:
                    raise ParseError("malformed hex literal", line, scol)
                value, hex_form = int(lit, 16), True
            else:
                while i < n and text[i] in "0123456789":
                    i += 1
                value, hex_form = int(text[start:i]), False
            if value >= WORD:
                raise ParseError("literal exceeds 256 bits", line, scol)
            col += i - start
            toks.append(Token("number", text[start:i], value, hex_form, line, scol))
            continue
        if ch.isalpha() or ch == "_":
            start, scol = i, col
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            col += i - start
            kind = "keyword" if word in KEYWORDS else "ident"
            toks.append(Token(kind, word, line=line, col=scol))
            continue
        for p in PUNCT:
            if text.startswith(p, i):
                toks.append(Token("punct", p, line=line, col=col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("eof", "", line=line, col=col))
    return toks


# ---------------------------------------------------------------------------
# Surface AST
# ---------------------------------------------------------------------------


class ENum(NamedTuple):
    value: int
    hex_form: bool = False


Pos = Tuple[int, int]  # (line, col) of a token


class EVar(NamedTuple):
    name: str
    at: Pos


class ESender:
    """msg.sender: a plain class, since a record without fields would be an
    empty, falsy tuple."""


class EIndex(NamedTuple):
    mapping: str
    key: "ExprAst"
    at: Pos  # of the mapping name


class EBin(NamedTuple):
    op: str  # surface operator text
    left: "ExprAst"
    right: "ExprAst"


class ENot(NamedTuple):
    operand: "ExprAst"


ExprAst = object


# Each statement keeps the line and column of its first token.
class SAssign(NamedTuple):
    target: str
    key: Optional[ExprAst]  # mapping subscript, if any
    value: ExprAst
    line: int = 0
    col: int = 0


class SRequire(NamedTuple):
    cond: ExprAst
    line: int = 0
    col: int = 0


class SIf(NamedTuple):
    cond: ExprAst
    then: Tuple
    els: Tuple  # empty when the source has no else
    line: int = 0
    col: int = 0


class SCall(NamedTuple):
    target: Optional[str]  # None for internal calls
    callee: str
    args: Tuple
    line: int = 0
    col: int = 0
    name_at: Pos = (0, 0)  # of the name after `call`: target, else callee


class SIntrinsic(NamedTuple):
    op: str  # TRANSFER | SELFDESTRUCT | DELEGATECALL
    args: Tuple
    line: int = 0
    col: int = 0


class SReturn(NamedTuple):
    value: Optional[ExprAst]
    line: int = 0
    col: int = 0


class FuncAst(NamedTuple):
    name: str
    params: Tuple[Tuple[str, str], ...]
    visibility: str
    body: Tuple
    name_at: Pos
    param_at: Tuple[Pos, ...]  # of each parameter name


class ContractAst(NamedTuple):
    name: str
    decls: Tuple[Tuple[str, str, Pos], ...]  # (kind keyword, name, at)
    functions: Tuple[FuncAst, ...]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _at(tok: Token) -> Pos:
    return (tok.line, tok.col)


_BIN_LEVELS = (("||",), ("&&",), ("==",), ("<", ">"), ("+", "-"), ("*", "/", "%"))


class _Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, msg: str, tok: Optional[Token] = None):
        t = tok or self.peek()
        raise ParseError(msg, t.line, t.col)

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            self.fail(f"expected {want!r}, found {t.text or t.kind!r}")
        return self.next()

    def accept(self, kind: str, text: str) -> bool:
        t = self.peek()
        if t.kind == kind and t.text == text:
            self.next()
            return True
        return False

    def parse_contract(self) -> ContractAst:
        self.expect("keyword", "contract")
        name = self.expect("ident").text
        self.expect("punct", "{")
        decls: list[Tuple[str, str, Pos]] = []
        while self.peek().kind == "keyword" and self.peek().text in (
                "address", "uint", "mapping"):
            kind = self.next().text
            dname = self.expect("ident")
            self.expect("punct", ";")
            decls.append((kind, dname.text, _at(dname)))
        funcs: list[FuncAst] = []
        while self.peek().kind == "keyword" and self.peek().text == "function":
            funcs.append(self.parse_function())
        self.expect("punct", "}")
        self.expect("eof")
        return ContractAst(name, tuple(decls), tuple(funcs))

    def parse_function(self) -> FuncAst:
        self.expect("keyword", "function")
        name = self.expect("ident")
        self.expect("punct", "(")
        params: list[Tuple[str, str]] = []
        param_at: list[Pos] = []
        if not self.accept("punct", ")"):
            while True:
                ptype = self.peek()
                if ptype.kind != "keyword" or ptype.text not in ("uint", "address", "bool"):
                    self.fail("expected parameter type (uint, address, bool)")
                self.next()
                pname = self.expect("ident")
                params.append((pname.text,
                               {"uint": "uint256"}.get(ptype.text, ptype.text)))
                param_at.append(_at(pname))
                if self.accept("punct", ")"):
                    break
                self.expect("punct", ",")
        vis = self.peek()
        if vis.kind != "keyword" or vis.text not in ("public", "internal"):
            self.fail("expected visibility (public or internal)")
        self.next()
        body = self.parse_block_stmts()
        return FuncAst(name.text, tuple(params), vis.text, body, _at(name),
                       tuple(param_at))

    def parse_block_stmts(self) -> Tuple:
        self.expect("punct", "{")
        stmts = []
        while not self.accept("punct", "}"):
            stmts.append(self.parse_stmt())
        return tuple(stmts)

    def parse_stmt(self):
        t = self.peek()
        if t.kind == "keyword":
            if t.text == "require":
                self.next()
                self.expect("punct", "(")
                cond = self.parse_expr()
                self.expect("punct", ")")
                self.expect("punct", ";")
                return SRequire(cond, *_at(t))
            if t.text == "if":
                self.next()
                self.expect("punct", "(")
                cond = self.parse_expr()
                self.expect("punct", ")")
                then = self.parse_block_stmts()
                els: Tuple = ()
                if self.accept("keyword", "else"):
                    els = self.parse_block_stmts()
                return SIf(cond, then, els, *_at(t))
            if t.text == "call":
                self.next()
                first = self.expect("ident")
                if self.accept("punct", "."):
                    callee = self.expect("ident").text
                    target: Optional[str] = first.text
                else:
                    callee, target = first.text, None
                args = self.parse_args()
                self.expect("punct", ";")
                return SCall(target, callee, args, *_at(t), _at(first))
            if t.text == "transfer":
                self.next()
                args = self.parse_args()
                if len(args) != 2:
                    self.fail("transfer takes (to, amount)", t)
                self.expect("punct", ";")
                return SIntrinsic("TRANSFER", args, *_at(t))
            if t.text in ("selfdestruct", "delegatecall"):
                self.next()
                args = self.parse_args()
                if len(args) != 1:
                    self.fail(f"{t.text} takes one argument", t)
                self.expect("punct", ";")
                return SIntrinsic(t.text.upper(), args, *_at(t))
            if t.text == "return":
                self.next()
                value = None
                if not (self.peek().kind == "punct" and self.peek().text == ";"):
                    value = self.parse_expr()
                self.expect("punct", ";")
                return SReturn(value, *_at(t))
            self.fail(f"unexpected keyword {t.text!r}")
        if t.kind == "ident":
            name = self.next().text
            key = None
            if self.accept("punct", "["):
                key = self.parse_expr()
                self.expect("punct", "]")
            self.expect("punct", "=")
            value = self.parse_expr()
            self.expect("punct", ";")
            return SAssign(name, key, value, *_at(t))
        self.fail("expected statement")

    def parse_args(self) -> Tuple:
        self.expect("punct", "(")
        args = []
        if not self.accept("punct", ")"):
            while True:
                args.append(self.parse_expr())
                if self.accept("punct", ")"):
                    break
                self.expect("punct", ",")
        return tuple(args)

    def parse_expr(self, level: int = 0):
        if level == len(_BIN_LEVELS):
            return self.parse_unary()
        node = self.parse_expr(level + 1)
        ops = _BIN_LEVELS[level]
        while self.peek().kind == "punct" and self.peek().text in ops:
            op = self.next().text
            rhs = self.parse_expr(level + 1)
            node = EBin(op, node, rhs)
        return node

    def parse_unary(self):
        if self.peek().kind == "punct" and self.peek().text == "!":
            self.next()
            return ENot(self.parse_unary())
        return self.parse_primary()

    def parse_primary(self):
        t = self.peek()
        if t.kind == "number":
            self.next()
            return ENum(t.value, t.hex_form)
        if t.kind == "keyword" and t.text == "msg":
            self.next()
            self.expect("punct", ".")
            sender = self.expect("ident")
            if sender.text != "sender":
                self.fail("expected msg.sender", sender)
            return ESender()
        if t.kind == "punct" and t.text == "(":
            self.next()
            inner = self.parse_expr()
            self.expect("punct", ")")
            return inner
        if t.kind == "ident":
            self.next()
            if self.accept("punct", "["):
                key = self.parse_expr()
                self.expect("punct", "]")
                return EIndex(t.text, key, _at(t))
            return EVar(t.text, _at(t))
        self.fail("expected expression")


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------

_SURFACE_TO_BINOP = {"+": "ADD", "-": "SUB", "*": "MUL", "/": "DIV", "%": "MOD",
                     "<": "LT", ">": "GT", "==": "EQ", "&&": "AND", "||": "OR"}


def _check_name(name: str, at: Pos):
    if TEMP_NAME.match(name):
        raise ParseError(f"{name!r} is reserved for lowering temps", *at)


class _Lowerer:
    def __init__(self, ast: ContractAst):
        self.ast = ast
        self.storage: dict[str, StorageDecl] = {}
        for slot, (kind, name, at) in enumerate(ast.decls):
            _check_name(name, at)
            if name in self.storage:
                raise ParseError(f"duplicate storage name {name}", *at)
            skind = "mapping" if kind == "mapping" else "scalar"
            self.storage[name] = StorageDecl(name, slot, skind)
        self.storage_types = {name: ("address" if kind == "address" else "uint256")
                              for (kind, name, _) in ast.decls if kind != "mapping"}
        self.arity = {f.name: len(f.params) for f in ast.functions}
        self.literals: list[LiteralUse] = []
        self.sid = 0

    def fresh_sid(self) -> int:
        self.sid += 1
        return self.sid - 1

    def lower(self) -> Contract:
        functions = tuple(_FnLowerer(self, f).run() for f in self.ast.functions)
        contract = Contract(
            name=self.ast.name,
            storage=tuple(self.storage[name] for _, name, _ in self.ast.decls),
            functions=functions,
            literal_uses=tuple(self.literals),
        )
        try:
            validate(contract)
        except IRError as err:  # lowering must never construct invalid IR
            raise AssertionError(f"lowering produced invalid IR: {err}") from err
        return contract


class _FnLowerer:
    def __init__(self, outer: _Lowerer, fast: FuncAst):
        self.o = outer
        self.fast = fast
        self.blocks: list[BasicBlock] = []
        self.current = self.new_block()
        self.temp = 0
        self.locals: dict[str, str] = {}  # name -> shallow semantic type
        self.param_names = frozenset(p for p, _ in fast.params)
        _check_name(fast.name, fast.name_at)
        for (pname, ptype), at in zip(fast.params, fast.param_at):
            _check_name(pname, at)
            if pname in self.locals or pname in outer.storage:
                raise ParseError(f"duplicate name {pname}", *at)
            self.locals[pname] = ptype

    def new_block(self) -> BasicBlock:
        b = BasicBlock(f"{self.fast.name}.b{len(self.blocks)}", [])
        self.blocks.append(b)
        return b

    def fresh_temp(self) -> str:
        name = f"t{self.temp}"
        self.temp += 1
        return name

    def emit(self, op: str, operands=(), result=None, binop=None, callee=None,
             targets=(), line=0) -> Statement:
        s = Statement(self.o.fresh_sid(), op, tuple(operands), result, binop,
                      callee, tuple(targets), line)
        self.current.statements.append(s)
        return s

    @property
    def terminated(self) -> bool:
        return bool(self.current.statements) and (
            self.current.statements[-1].op in ("BRANCH", "JUMP", "RETURN",
                                               "SELFDESTRUCT"))

    def run(self) -> Function:
        self.lower_stmts(self.fast.body)
        if not self.terminated:
            self.emit("RETURN")
        return Function(
            name=self.fast.name,
            visibility=self.fast.visibility,
            params=self.fast.params,
            blocks=self.blocks,
            entry_block=self.blocks[0].bid,
        )

    def lower_stmts(self, stmts):
        for s in stmts:
            if self.terminated:
                raise ParseError("unreachable statement after terminator",
                                 s.line, s.col)
            try:
                self.lower_stmt(s)
            except RecursionError:
                raise ParseError("nesting too deep", s.line, s.col) from None

    # -- expressions ---------------------------------------------------

    def expr_type(self, e) -> str:
        if isinstance(e, ESender):
            return "address"
        if isinstance(e, EVar):
            if e.name in self.locals:
                return self.locals[e.name]
            return self.o.storage_types.get(e.name, "uint256")
        if isinstance(e, EBin) and e.op in ("==", "<", ">", "&&", "||"):
            return "bool"
        if isinstance(e, ENot):
            return "bool"
        return "uint256"

    def literal(self, e: ENum, address: bool) -> Const:
        """Record the use of a literal, `address` telling whether it stands
        in an address position, and lower it to a Const operand."""
        self.o.literals.append(LiteralUse(e.value, address, e.hex_form))
        return Const(e.value, hex_hint=e.hex_form)

    def lower_operand(self, e, line=0, address=False):
        """Lower an expression to an operand (var name or literal Const);
        `address` marks e as standing in an address position."""
        if isinstance(e, ENum):
            return self.literal(e, address)
        if isinstance(e, EVar) and e.name in self.locals:
            return e.name
        return self.lower_into(e, None, line, address)

    def lower_into(self, e, result: Optional[str], line=0,
                   address=False) -> str:
        """Lower e so its value lands in `result` (a fresh temp when None,
        allocated after the operands so temp numbering follows emission
        order). Returns the actual result name."""
        if isinstance(e, ENum):
            return self.emit("CONST", [self.literal(e, address)],
                             result=result or self.fresh_temp(), line=line).result
        if isinstance(e, ESender):
            return self.emit("CALLER", [], result=result or self.fresh_temp(),
                             line=line).result
        if isinstance(e, EVar):
            name = e.name
            if name in self.locals:
                # plain variable copy, encoded as x + 0
                return self.emit("BINOP", [name, Const(0)],
                                 result=result or self.fresh_temp(),
                                 binop="ADD", line=line).result
            decl = self.o.storage.get(name)
            if decl is None:
                raise ParseError(f"reference to undeclared name {name}", *e.at)
            if decl.kind == "mapping":
                raise ParseError(f"mapping {name} used without a key", *e.at)
            return self.emit("SLOAD", [Const(decl.slot, hex_hint=True)],
                             result=result or self.fresh_temp(),
                             line=line).result
        if isinstance(e, EIndex):
            addr = self.lower_cell_address(e, line)
            return self.emit("SLOAD", [addr],
                             result=result or self.fresh_temp(),
                             line=line).result
        if isinstance(e, EBin):
            addr_cmp = e.op == "==" and "address" in (
                self.expr_type(e.left), self.expr_type(e.right))
            left = self.lower_operand(e.left, line, addr_cmp)
            right = self.lower_operand(e.right, line, addr_cmp)
            return self.emit("BINOP", [left, right],
                             result=result or self.fresh_temp(),
                             binop=_SURFACE_TO_BINOP[e.op], line=line).result
        if isinstance(e, ENot):
            x = self.lower_operand(e.operand, line)
            return self.emit("BINOP", [x], result=result or self.fresh_temp(),
                             binop="NOT", line=line).result
        raise AssertionError(e)

    def lower_cell_address(self, e: EIndex, line=0) -> str:
        decl = self.o.storage.get(e.mapping)
        if decl is None:
            raise ParseError(f"reference to undeclared name {e.mapping}", *e.at)
        if decl.kind != "mapping":
            raise ParseError(f"{e.mapping} is not a mapping", *e.at)
        key = self.lower_operand(e.key, line, address=True)
        t0 = self.fresh_temp()
        self.emit("CONCAT", [key, Const(decl.slot, hex_hint=True)], result=t0,
                  line=line)
        t1 = self.fresh_temp()
        self.emit("SHA3", [t0], result=t1, line=line)
        return t1

    # -- statements ----------------------------------------------------

    def lower_stmt(self, s):
        if isinstance(s, SAssign):
            self.lower_assign(s)
        elif isinstance(s, SRequire):
            cond = self.lower_operand(s.cond, s.line)
            self.emit("REQUIRE", [cond], line=s.line)
        elif isinstance(s, SIf):
            self.lower_if(s)
        elif isinstance(s, SCall):
            self.lower_call(s)
        elif isinstance(s, SIntrinsic):
            # the first argument is the to / beneficiary / target address
            ops = [self.lower_operand(a, s.line, i == 0)
                   for i, a in enumerate(s.args)]
            self.emit(s.op, ops, line=s.line)
        elif isinstance(s, SReturn):
            if s.value is None:
                self.emit("RETURN", [], line=s.line)
            else:
                v = self.lower_operand(s.value, s.line)
                self.emit("RETURN", [v], line=s.line)
        else:
            raise AssertionError(s)

    def lower_assign(self, s: SAssign):
        if s.key is not None:
            addr = self.lower_cell_address(
                EIndex(s.target, s.key, (s.line, s.col)), s.line)
            value = self.lower_operand(s.value, s.line)
            self.emit("SSTORE", [addr, value], line=s.line)
            return
        decl = self.o.storage.get(s.target)
        if decl is not None:
            if decl.kind == "mapping":
                raise ParseError(f"mapping {s.target} assigned without a key",
                                 s.line, s.col)
            value = self.lower_operand(
                s.value, s.line, self.o.storage_types[s.target] == "address")
            self.emit("SSTORE", [Const(decl.slot, hex_hint=True), value],
                      line=s.line)
            return
        # local (auto-declared on first assignment); parameters always
        # denote the caller-supplied values and cannot be reassigned
        if s.target in self.param_names:
            raise ParseError(f"cannot assign to parameter {s.target}",
                             s.line, s.col)
        _check_name(s.target, (s.line, s.col))
        self.lower_into(s.value, s.target, s.line,
                        self.locals.get(s.target) == "address")
        if s.target not in self.locals:
            self.locals[s.target] = self.expr_type(s.value)

    def lower_if(self, s: SIf):
        cond = self.lower_operand(s.cond, s.line)
        head = self.current
        branch = self.emit("BRANCH", [cond], line=s.line)

        then_block = self.new_block()
        self.current = then_block
        self.lower_stmts(s.then)
        then_end, then_done = self.current, self.terminated

        else_block = self.new_block()
        self.current = else_block
        self.lower_stmts(s.els)
        else_end, else_done = self.current, self.terminated

        join = self.new_block()
        if not then_done:
            self.current = then_end
            self.emit("JUMP", targets=[join.bid], line=s.line)
        if not else_done:
            self.current = else_end
            self.emit("JUMP", targets=[join.bid], line=s.line)
        # the arms' block ids are known only now; the branch still ends head
        head.statements[-1] = branch._replace(
            targets=(then_block.bid, else_block.bid))
        self.current = join
        if then_done and else_done:
            # join unreachable; it still needs a terminator
            self.emit("RETURN", [], line=s.line)

    def lower_call(self, s: SCall):
        if s.target is None:
            arity = self.o.arity.get(s.callee)
            if arity is None:
                raise ParseError(f"internal call to unknown function {s.callee}",
                                 *s.name_at)
            if s.callee == CONSTRUCTOR_NAME:
                raise ParseError("cannot call the constructor", *s.name_at)
            if arity != len(s.args):
                raise ParseError(f"{s.callee} expects {arity} arguments",
                                 *s.name_at)
            ops = [self.lower_operand(a, s.line) for a in s.args]
            self.emit("CALLINTERNAL", ops, callee=s.callee, line=s.line)
            return
        target = s.target
        if target in self.locals:
            top = target
        elif target in self.o.storage:
            decl = self.o.storage[target]
            if decl.kind == "mapping":
                raise ParseError(f"mapping {target} is not callable",
                                 *s.name_at)
            top = self.fresh_temp()
            self.emit("SLOAD", [Const(decl.slot, hex_hint=True)], result=top,
                      line=s.line)
        else:
            top = f"@{target}"  # opaque external contract reference
        ops = [top] + [self.lower_operand(a, s.line) for a in s.args]
        self.emit("CALLEXTERNAL", ops, callee=s.callee, line=s.line)


def parse(text: str) -> Contract:
    """Parse and lower a surface contract. Raises ParseError, also for
    input nested too deeply for the recursive parser or lowering."""
    parser = _Parser(text)
    try:
        ast = parser.parse_contract()
    except RecursionError:
        tok = parser.peek()
        raise ParseError("nesting too deep", tok.line, tok.col) from None
    return _Lowerer(ast).lower()

