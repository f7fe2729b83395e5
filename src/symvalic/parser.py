"""Surface-format (.svc) parser: reads a contract straight into the IR.

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

One recursive-descent pass emits three-address statements into basic
blocks as it reads; there is no syntax tree. An expression comes back as
a pending `_Value`: the op and operands that would compute it, its shallow
type and, for a bare literal, the literal's index in `literal_uses`. The
caller either uses it as an operand, which emits it into a fresh temp
unless it is a literal or a local, or places it straight into an
assignment's target. A binary operator's left side becomes an operand
before its right side is read, and a result temp is allocated only after
the operands, so temps and statement ids follow emission order.

Each literal is recorded as a `LiteralUse` when it is read, in source
order, and marked later if it stands in an address position: when the
whole operand, parentheses aside, is the literal and it is a mapping key
(read or write), the first argument of transfer, selfdestruct or
delegatecall, a side of an `==` whose other side is address-typed, or the
value assigned to address-typed storage or to a local that an earlier
assignment made address-typed. The operands of any other operator, of `!`,
call arguments and returned values are not address positions.

Errors: the first error met in source order is raised as a ParseError at
the token it names, except that internal calls, the one forward
reference, are checked after the last function: unknown callee, then
calling the constructor, then arity, call by call. A function name that
repeats is a parse error. Input nested too deeply for the recursive
descent (parentheses, `!`, `if`) gives `nesting too deep`.
"""

from __future__ import annotations

import re
from collections import namedtuple
from typing import Optional

from .ir import (
    CONSTRUCTOR_NAME, TERMINATORS, BasicBlock, Contract, Function, IRError,
    LiteralUse, Statement, StorageDecl, TEMP_NAME, validate,
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

# Only ASCII digits start a number (`\d` takes other scripts' digits too).
# A word is `\w+`, which is exactly str.isalnum() or "_"; its first
# character must also be a letter or "_". Whitespace is " \t\r" and "\n";
# any other character, a lone "&" or "|" among them, is an error.
_TOKEN = re.compile(r"""
    (?P<space>[ \t\r]+)
  | (?P<newline>\n)
  | (?P<comment>//[^\n]*)
  | (?P<number>0[xX][0-9a-fA-F]*|[0-9]+)
  | (?P<word>\w+)
  | (?P<punct>&&|\|\||==|[{}()\[\];,.=+\-*/%<>!])
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)

# the decimal digits of 2^256: a literal with more significant digits
# exceeds 256 bits
WORD_DIGITS = len(str(WORD))


# kind: "ident" | "keyword" | "number" | "punct" | "eof"; value and
# hex_form describe a number
Token = namedtuple("Token", "kind text value hex_form line col",
                   defaults=(0, False, 0, 0))


def tokenize(text: str) -> list[Token]:
    """The tokens of text, ending in an "eof" token. Columns count
    characters from 1; a comment does not advance the column, so an "eof"
    right after a comment has the comment's column."""
    toks: list[Token] = []
    line, line_start, eof_col = 1, 0, None
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            continue
        if kind == "newline":
            line, line_start, eof_col = line + 1, m.end(), None
            continue
        word = m.group()
        col = m.start() - line_start + 1
        if kind == "comment":
            eof_col = col
        elif kind == "number":
            hex_form = word[1:2] in ("x", "X")
            if hex_form and len(word) == 2:
                raise ParseError("malformed hex literal", line, col)
            if hex_form:
                value = int(word, 16)
            else:
                # checked before int(), which refuses strings of more than
                # 4,300 digits, leading zeros included
                digits = word.lstrip("0")
                if len(digits) > WORD_DIGITS:
                    raise ParseError("literal exceeds 256 bits", line, col)
                value = int(digits or "0")
            if value >= WORD:
                raise ParseError("literal exceeds 256 bits", line, col)
            toks.append(Token("number", word, value, hex_form, line, col))
        elif kind == "word" and (word[0].isalpha() or word[0] == "_"):
            toks.append(Token("keyword" if word in KEYWORDS else "ident",
                              word, 0, False, line, col))
        elif kind == "punct":
            toks.append(Token("punct", word, 0, False, line, col))
        else:
            raise ParseError(f"unexpected character {word[0]!r}", line, col)
    if eof_col is None:
        eof_col = len(text) - line_start + 1
    toks.append(Token("eof", "", 0, False, line, eof_col))
    return toks


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# An expression read but not yet emitted: op is an IR op, or LOCAL (the
# value of the local operands[0]); type its shallow semantic type; lit a
# bare literal's index in literal_uses, else None.
_Value = namedtuple("_Value", "op operands binop type lit",
                    defaults=(None, "uint256", None))


# surface operator -> (precedence, BINOP name); higher binds tighter
_BINARY = {"||": (0, "OR"), "&&": (1, "AND"), "==": (2, "EQ"),
           "<": (3, "LT"), ">": (3, "GT"), "+": (4, "ADD"), "-": (4, "SUB"),
           "*": (5, "MUL"), "/": (5, "DIV"), "%": (5, "MOD")}
_BOOL_OPS = ("EQ", "LT", "GT", "AND", "OR")
_PARAM_TYPES = {"uint": "uint256", "address": "address", "bool": "bool"}


def _check_name(tok: Token):
    if TEMP_NAME.match(tok.text):
        raise ParseError(f"{tok.text!r} is reserved for lowering temps",
                         tok.line, tok.col)


class _Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.pos = 0
        self.storage: dict[str, StorageDecl] = {}
        self.storage_types: dict[str, str] = {}  # scalar name -> type
        self.literals: list[LiteralUse] = []
        self.sid = 0
        self.calls: list[tuple] = []  # (callee, argument count, name token)

    # -- tokens --------------------------------------------------------

    # A token's text alone tells punctuation and keywords apart: no
    # identifier or number has such a text.

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
        t = self.toks[self.pos]
        if t.kind != kind or (text is not None and t.text != text):
            self.fail(f"expected {text or kind!r}, found {t.text or t.kind!r}")
        self.pos += 1
        return t

    def accept(self, text: str) -> bool:
        """Consume the next token if it is this punctuation or keyword."""
        if self.toks[self.pos].text == text:
            self.pos += 1
            return True
        return False

    # -- declarations --------------------------------------------------

    def contract(self) -> Contract:
        self.expect("keyword", "contract")
        name = self.expect("ident").text
        self.expect("punct", "{")
        while self.peek().text in ("address", "uint", "mapping"):
            kind = self.next().text
            tok = self.expect("ident")
            _check_name(tok)
            if tok.text in self.storage:
                self.fail(f"duplicate storage name {tok.text}", tok)
            self.expect("punct", ";")
            self.storage[tok.text] = StorageDecl(
                tok.text, len(self.storage),
                "mapping" if kind == "mapping" else "scalar")
            if kind != "mapping":
                self.storage_types[tok.text] = (
                    "address" if kind == "address" else "uint256")
        functions: dict[str, Function] = {}
        while self.accept("function"):
            fn = self.function(functions)
            functions[fn.name] = fn
        for callee, argc, tok in self.calls:
            fn = functions.get(callee)
            if fn is None:
                self.fail(f"internal call to unknown function {callee}", tok)
            if callee == CONSTRUCTOR_NAME:
                self.fail("cannot call the constructor", tok)
            if len(fn.params) != argc:
                self.fail(f"{callee} expects {len(fn.params)} arguments", tok)
        self.expect("punct", "}")
        self.expect("eof")
        return Contract(name, tuple(self.storage.values()),
                        tuple(functions.values()), tuple(self.literals))

    def function(self, functions: dict) -> Function:
        tok = self.expect("ident")
        _check_name(tok)
        if tok.text in functions:
            self.fail(f"duplicate function name {tok.text}", tok)
        self.fname = tok.text
        self.blocks: list[BasicBlock] = []
        self.current = self.new_block()
        self.temp = 0
        self.locals: dict[str, str] = {}  # name -> shallow semantic type
        self.expect("punct", "(")
        params = []
        if not self.accept(")"):
            while True:
                if self.peek().text not in _PARAM_TYPES:
                    self.fail("expected parameter type (uint, address, bool)")
                ptype = _PARAM_TYPES[self.next().text]
                pname = self.expect("ident")
                _check_name(pname)
                if pname.text in self.locals or pname.text in self.storage:
                    self.fail(f"duplicate name {pname.text}", pname)
                self.locals[pname.text] = ptype
                params.append((pname.text, ptype))
                if self.accept(")"):
                    break
                self.expect("punct", ",")
        self.params = frozenset(self.locals)
        if self.peek().text not in ("public", "internal"):
            self.fail("expected visibility (public or internal)")
        visibility = self.next().text
        self.body()
        if not self.terminated:
            self.emit("RETURN", (), line=0)
        return Function(self.fname, visibility, tuple(params), self.blocks,
                        self.blocks[0].bid)

    # -- emission ------------------------------------------------------

    def new_block(self) -> BasicBlock:
        b = BasicBlock(f"{self.fname}.b{len(self.blocks)}", [])
        self.blocks.append(b)
        return b

    def fresh_temp(self) -> str:
        self.temp += 1
        return f"t{self.temp - 1}"

    def emit(self, op: str, operands=(), result=None, binop=None,
             callee=None, targets=(), line=None) -> Statement:
        s = Statement(self.sid, op, tuple(operands), result, binop, callee,
                      targets, self.line if line is None else line)
        self.sid += 1
        self.current.statements.append(s)
        return s

    @property
    def terminated(self) -> bool:
        stmts = self.current.statements
        return bool(stmts) and stmts[-1].op in TERMINATORS

    def mark_address(self, v: _Value) -> None:
        if v.lit is not None:
            self.literals[v.lit] = self.literals[v.lit]._replace(
                address_position=True)

    def operand(self, v: _Value, address: bool = False):
        """v as a statement operand: a literal's Const, a local's name, or
        a fresh temp that v is emitted into."""
        if address:
            self.mark_address(v)
        if v.op == "CONST" or v.op == "LOCAL":
            return v.operands[0]
        return self.place(v, self.fresh_temp())

    def place(self, v: _Value, result: str) -> str:
        if v.op == "LOCAL":  # a plain copy, encoded as x + 0
            self.emit("BINOP", (v.operands[0], Const(0)), result, "ADD")
        else:
            self.emit(v.op, v.operands, result, v.binop)
        return result

    def cell(self, tok: Token) -> str:
        """After `NAME [`: emit the mapping cell's address, read the key
        and the closing bracket, and return the address temp."""
        decl = self.storage.get(tok.text)
        if decl is None:
            self.fail(f"reference to undeclared name {tok.text}", tok)
        if decl.kind != "mapping":
            self.fail(f"{tok.text} is not a mapping", tok)
        key = self.operand(self.expr(), address=True)
        self.expect("punct", "]")
        concat = self.fresh_temp()
        self.emit("CONCAT", (key, Const(decl.slot, hex_hint=True)), concat)
        return self.emit("SHA3", (concat,), self.fresh_temp()).result

    # -- statements ----------------------------------------------------

    def body(self) -> None:
        self.expect("punct", "{")
        while not self.accept("}"):
            if self.terminated:
                self.fail("unreachable statement after terminator")
            self.statement()

    def statement(self) -> None:
        t = self.next()
        self.line = t.line
        if t.text == "if":
            return self.if_statement(t)
        if t.kind == "ident":
            self.assignment(t)
        elif t.text == "require":
            self.expect("punct", "(")
            cond = self.operand(self.expr())
            self.expect("punct", ")")
            self.emit("REQUIRE", (cond,))
        elif t.text == "call":
            self.call()
        elif t.text in ("transfer", "selfdestruct", "delegatecall"):
            # the first argument is the to / beneficiary / target address
            args = self.args(address_first=True)
            if t.text == "transfer" and len(args) != 2:
                self.fail("transfer takes (to, amount)", t)
            if t.text != "transfer" and len(args) != 1:
                self.fail(f"{t.text} takes one argument", t)
            self.emit(t.text.upper(), args)
        elif t.text == "return":
            if self.peek().text == ";":
                self.emit("RETURN")
            else:
                self.emit("RETURN", (self.operand(self.expr()),))
        elif t.kind == "keyword":
            self.fail(f"unexpected keyword {t.text!r}", t)
        else:
            self.fail("expected statement", t)
        self.expect("punct", ";")

    def assignment(self, t: Token) -> None:
        if self.accept("["):
            addr = self.cell(t)
            self.expect("punct", "=")
            self.emit("SSTORE", (addr, self.operand(self.expr())))
            return
        decl = self.storage.get(t.text)
        if decl is not None:
            if decl.kind == "mapping":
                self.fail(f"mapping {t.text} assigned without a key", t)
            self.expect("punct", "=")
            value = self.operand(self.expr(),
                                 self.storage_types[t.text] == "address")
            self.emit("SSTORE", (Const(decl.slot, hex_hint=True), value))
            return
        # a local, declared by its first assignment; parameters always
        # denote the caller-supplied values and cannot be reassigned
        if t.text in self.params:
            self.fail(f"cannot assign to parameter {t.text}", t)
        _check_name(t)
        self.expect("punct", "=")
        v = self.expr()
        if self.locals.get(t.text) == "address":
            self.mark_address(v)
        self.place(v, t.text)
        self.locals.setdefault(t.text, v.type)

    def if_statement(self, t: Token) -> None:
        self.expect("punct", "(")
        cond = self.operand(self.expr())
        self.expect("punct", ")")
        head = self.current
        branch = self.emit("BRANCH", (cond,))
        then_block = self.current = self.new_block()
        self.body()
        then_end, then_done = self.current, self.terminated
        else_block = self.current = self.new_block()
        if self.accept("else"):
            self.body()
        else_end, else_done = self.current, self.terminated
        join = self.new_block()
        for end, done in ((then_end, then_done), (else_end, else_done)):
            if not done:
                self.current = end
                self.emit("JUMP", targets=(join.bid,), line=t.line)
        # the arms' block ids are known only now; the branch still ends head
        head.statements[-1] = branch._replace(
            targets=(then_block.bid, else_block.bid))
        self.current = join
        if then_done and else_done:
            # join unreachable; it still needs a terminator
            self.emit("RETURN", line=t.line)

    def call(self) -> None:
        first = self.expect("ident")
        if not self.accept("."):
            args = self.args()
            self.calls.append((first.text, len(args), first))
            self.emit("CALLINTERNAL", args, callee=first.text)
            return
        callee = self.expect("ident").text
        decl = self.storage.get(first.text)
        if first.text in self.locals:
            target = first.text
        elif decl is None:
            target = f"@{first.text}"  # opaque external contract reference
        elif decl.kind == "mapping":
            self.fail(f"mapping {first.text} is not callable", first)
        else:
            target = self.fresh_temp()
            self.emit("SLOAD", (Const(decl.slot, hex_hint=True),), target)
        self.emit("CALLEXTERNAL", [target] + self.args(), callee=callee)

    def args(self, address_first: bool = False) -> list:
        self.expect("punct", "(")
        ops: list = []
        if not self.accept(")"):
            while True:
                address = address_first and not ops
                ops.append(self.operand(self.expr(), address))
                if self.accept(")"):
                    break
                self.expect("punct", ",")
        return ops

    # -- expressions ---------------------------------------------------

    def expr(self, min_prec: int = 0) -> _Value:
        """An expression of operators binding at least as tight as
        min_prec; each operator's chain of equals is read in a loop."""
        left = self.unary()
        while True:
            op = _BINARY.get(self.toks[self.pos].text)
            if op is None or op[0] < min_prec:
                return left
            self.pos += 1
            prec, binop = op
            lhs = self.operand(left)
            right = self.expr(prec + 1)
            if binop == "EQ" and "address" in (left.type, right.type):
                self.mark_address(left)
                self.mark_address(right)
            left = _Value("BINOP", (lhs, self.operand(right)), binop,
                          "bool" if binop in _BOOL_OPS else "uint256")

    def unary(self) -> _Value:
        if self.accept("!"):
            operand = self.operand(self.unary())
            return _Value("BINOP", (operand,), "NOT", "bool")
        return self.primary()

    def primary(self) -> _Value:
        t = self.next()
        if t.kind == "number":
            self.literals.append(LiteralUse(t.value, False, t.hex_form))
            return _Value("CONST", (Const(t.value, hex_hint=t.hex_form),),
                          lit=len(self.literals) - 1)
        if t.kind == "ident":
            if self.accept("["):
                return _Value("SLOAD", (self.cell(t),))
            if t.text in self.locals:
                return _Value("LOCAL", (t.text,), type=self.locals[t.text])
            decl = self.storage.get(t.text)
            if decl is None:
                self.fail(f"reference to undeclared name {t.text}", t)
            if decl.kind == "mapping":
                self.fail(f"mapping {t.text} used without a key", t)
            return _Value("SLOAD", (Const(decl.slot, hex_hint=True),),
                          type=self.storage_types[t.text])
        if t.text == "(":
            v = self.expr()
            self.expect("punct", ")")
            return v
        if t.text == "msg":
            self.expect("punct", ".")
            sender = self.expect("ident")
            if sender.text != "sender":
                self.fail("expected msg.sender", sender)
            return _Value("CALLER", (), type="address")
        self.fail("expected expression", t)


def parse(text: str) -> Contract:
    """Parse a surface contract into the IR. Raises ParseError, also for
    input nested too deeply for the recursive descent."""
    parser = _Parser(text)
    try:
        contract = parser.contract()
    except RecursionError:
        tok = parser.toks[min(parser.pos, len(parser.toks) - 1)]
        raise ParseError("nesting too deep", tok.line, tok.col) from None
    try:
        validate(contract)
    except IRError as err:  # the parser must never construct invalid IR
        raise AssertionError(f"parser produced invalid IR: {err}") from err
    return contract
