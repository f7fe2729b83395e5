"""Surface parsing, lowering, IR invariants, constant harvesting."""

import json
import random

import pytest

from symvalic.cli import main
from symvalic.ir import (
    IRError, LiteralUse, Statement, flow_after, harvest_constants, live_in,
    validate,
)
from symvalic.parser import ParseError, parse, tokenize
from symvalic.symexpr import ARITY, BINOPS, Const

from conftest import FIXTURES, fixture_contract
from helpers import (
    gen_oracle_contract, gen_rounds_contract, gen_storage_contract,
    statements_after, variables_live_at,
)
from test_join import branchy_like


def stmts(contract, fn):
    return [s for s in contract.function(fn).statements()]


def test_require_sender_eq_owner_lowering():
    c = parse("contract T { address owner; function f() public {"
              " require(msg.sender == owner); } }")
    ops = [(s.op, s.result) for s in stmts(c, "f")]
    assert ops[:4] == [
        ("CALLER", "t0"),
        ("SLOAD", "t1"),
        ("EQ", "t2"),
        ("REQUIRE", None),
    ]
    sload = stmts(c, "f")[1]
    assert sload.operands == (Const(0),)


def test_mapping_store_lowering():
    c = parse("contract T { uint filler; mapping balanceOf;"
              " function f(address to, uint v) public { balanceOf[to] = v; } }")
    seq = stmts(c, "f")
    assert [s.op for s in seq[:3]] == ["CONCAT", "SHA3", "SSTORE"]
    concat = seq[0]
    assert concat.operands == ("to", Const(1))
    sha = seq[1]
    assert sha.operands == (concat.result,)
    store = seq[2]
    assert store.operands == (sha.result, "v")


def test_empty_body_single_return():
    c = parse("contract T { function f() public { } }")
    f = c.function("f")
    assert len(f.blocks) == 1
    assert [s.op for s in f.blocks[0].statements] == ["RETURN"]


def test_storage_slots_in_declaration_order():
    c = parse("contract T { address a; uint b; mapping m;"
              " function f() public { } }")
    assert [(d.name, d.slot, d.kind) for d in c.storage] == [
        ("a", 0, "scalar"), ("b", 1, "scalar"), ("m", 2, "mapping")]


@pytest.mark.parametrize("source,fragment", [
    ("contract T { function f() public { x = ; } }", "expected expression"),
    ("contract T { function f() public { y = undeclared_thing; } }",
     "undeclared"),
    ("contract T { uint s; function f() public { s[1] = 2; } }",
     "not a mapping"),
    ("contract T { mapping m; function f() public { x = m; } }",
     "without a key"),
    ("contract T { function f() public { transfer(1); } }", "transfer"),
    ("contract T { function f() public { return 1; x = 2; } }",
     "unreachable"),
    ("contract T { function f() public { t3 = 1; } }", "reserved"),
    ("contract T { function f(uint x, uint x) public { } }", "duplicate"),
    ("contract T { function f() public { x = 1\u00b2; } }",
     "1:41: unexpected character '\u00b2'"),
    ("contract T { function f() public { x = \u0663; } }",
     "1:40: unexpected character '\u0663'"),
    # lowering errors point at the token they name
    ("contract T { uint a; uint a; function f() public { } }",
     "1:27: duplicate storage name a"),
    ("contract T {\n  function f() public {\n    y = 1;\n    x = y + zz;\n"
     "  }\n}", "4:13: reference to undeclared name zz"),
    ("contract T { function f() public { call g(1); } }",
     "1:41: internal call to unknown function g"),
    ("contract T { function g(uint a, uint b) internal { }\n"
     "  function f() public { call g(1); } }", "2:30: g expects 2 arguments"),
    ("contract T { uint t0; function f() public { } }",
     "1:19: 't0' is reserved for lowering temps"),
    ("contract T { function f(uint t1) public { } }",
     "1:30: 't1' is reserved for lowering temps"),
    ("contract T {\n  function f() public { }\n  function f() public { }\n}",
     "3:12: duplicate function name f"),
])
def test_parse_errors(source, fragment):
    with pytest.raises(ParseError) as err:
        parse(source)
    assert fragment.lower() in str(err.value).lower()


@pytest.mark.parametrize("source,expected", [
    # a lowering error before a syntax error is the one reported
    ("contract T {\n  function f() public {\n    x = zz;\n    y = 1;\n"
     "    z = ;\n  }\n}", "3:9: reference to undeclared name zz"),
    # internal calls are checked after the last function, in call order
    ("contract T {\n  function f() public { call g(); }\n"
     "  function h() public { call f(1); }\n}",
     "2:30: internal call to unknown function g"),
    ("contract T {\n  function f() public { call g(); }\n"
     "  function h() public { x = zz; }\n}",
     "3:29: reference to undeclared name zz"),
], ids=["undeclared-before-syntax", "calls-in-order", "calls-after-last"])
def test_first_error_in_source_order_is_reported(source, expected):
    with pytest.raises(ParseError) as err:
        parse(source)
    assert str(err.value) == expected


def tok(kind, text, line, col, value=0):
    return (kind, text, value, line, col)


@pytest.mark.parametrize("source,expected", [
    ("a\tb\r\nc", [tok("ident", "a", 1, 1), tok("ident", "b", 1, 3),
                    tok("ident", "c", 2, 1), tok("eof", "", 2, 2)]),
    ("x // note\ny", [tok("ident", "x", 1, 1), tok("ident", "y", 2, 1),
                      tok("eof", "", 2, 2)]),
    # a comment does not advance the column, so neither does the eof
    ("x  // note", [tok("ident", "x", 1, 1), tok("eof", "", 1, 4)]),
    ("0x1f 0X1F 12abc", [tok("number", "0x1f", 1, 1, 31),
                         tok("number", "0X1F", 1, 6, 31),
                         tok("number", "12", 1, 11, 12),
                         tok("ident", "abc", 1, 13), tok("eof", "", 1, 16)]),
    ("a\u00e91 \u00e9 msg", [tok("ident", "a\u00e91", 1, 1),
                             tok("ident", "\u00e9", 1, 5),
                             tok("keyword", "msg", 1, 7),
                             tok("eof", "", 1, 10)]),
    ("a&&b||c==d=e", [tok("ident", "a", 1, 1), tok("punct", "&&", 1, 2),
                      tok("ident", "b", 1, 4), tok("punct", "||", 1, 5),
                      tok("ident", "c", 1, 7), tok("punct", "==", 1, 8),
                      tok("ident", "d", 1, 10), tok("punct", "=", 1, 11),
                      tok("ident", "e", 1, 12), tok("eof", "", 1, 13)]),
    ("a/b//c", [tok("ident", "a", 1, 1), tok("punct", "/", 1, 2),
                tok("ident", "b", 1, 3), tok("eof", "", 1, 4)]),
    # past int()'s 4,300-digit limit, but the value fits: zeros are padding
    ("0" * 4400 + "1", [tok("number", "0" * 4400 + "1", 1, 1, 1),
                        tok("eof", "", 1, 4402)]),
    ("00 0" + str(2 ** 256 - 1), [tok("number", "00", 1, 1, 0),
                                  tok("number", "0" + str(2 ** 256 - 1), 1, 4,
                                      2 ** 256 - 1),
                                  tok("eof", "", 1, 83)]),
], ids=["whitespace", "comment", "comment-at-eof", "numbers", "unicode-ident",
        "operators", "slash-vs-comment", "zero-padded-4401-digits",
        "zero-padded-max"])
def test_tokenize(source, expected):
    assert [tuple(t) for t in tokenize(source)] == expected


@pytest.mark.parametrize("source,expected", [
    ("x = 0x;", "1:5: malformed hex literal"),
    (f"x = {2 ** 256};", "1:5: literal exceeds 256 bits"),
    ("x = 1" + "0" * 4400 + ";", "1:5: literal exceeds 256 bits"),
    ("x = 0" + "9" * 79 + ";", "1:5: literal exceeds 256 bits"),
    ("x = 1\u00b2;", "1:6: unexpected character '\u00b2'"),
    ("x = \u0663;", "1:5: unexpected character '\u0663'"),
    ("x\n a\xa0b", "2:3: unexpected character '\\xa0'"),
    ("x\x0b", "1:2: unexpected character '\\x0b'"),
    ("a & b", "1:3: unexpected character '&'"),
    ("a | b", "1:3: unexpected character '|'"),
], ids=["bare-0x", "2**256", "4401-digits", "79-digits", "superscript-two",
        "arabic-indic-three", "nbsp", "vertical-tab", "ampersand", "bar"])
def test_tokenize_errors(source, expected):
    with pytest.raises(ParseError) as err:
        tokenize(source)
    assert str(err.value) == expected


def test_parse_error_carries_location():
    with pytest.raises(ParseError) as err:
        parse("contract T {\n  function f() public {\n    x = ;\n  }\n}")
    assert err.value.line == 3


@pytest.mark.parametrize("expr,expected", [
    ("a - b - c", [("SUB", ("a", "b")), ("SUB", ("t0", "c"))]),
    ("a + b * c", [("MUL", ("b", "c")), ("ADD", ("a", "t0"))]),
    ("(a + b) * c", [("ADD", ("a", "b")), ("MUL", ("t0", "c"))]),
    ("!a == b", [("NOT", ("a",)), ("EQ", ("t0", "b"))]),
    ("a || b && c", [("AND", ("b", "c")), ("OR", ("a", "t0"))]),
    ("a < b == c", [("LT", ("a", "b")), ("EQ", ("t0", "c"))]),
])
def test_operator_precedence_and_associativity(expr, expected):
    c = parse("contract T { function f(uint a, uint b, uint c) public {"
              f" x = {expr}; }} }}")
    assert [(s.op, s.operands) for s in stmts(c, "f")
            if s.op in ARITY] == expected


# one surface snippet per operator of ARITY; a mapping read lowers to both
# CONCAT and SHA3
SURFACE = {"ADD": "a + b", "SUB": "a - b", "MUL": "a * b", "DIV": "a / b",
           "MOD": "a % b", "LT": "a < b", "GT": "a > b", "EQ": "a == b",
           "AND": "a && b", "OR": "a || b", "NOT": "!a", "SHA3": "m[a]",
           "CONCAT": "m[a]"}


@pytest.mark.parametrize("op", ARITY)
def test_statement_names_its_operator_with_its_arity(op):
    assert SURFACE.keys() == ARITY.keys()
    c = parse("contract T { mapping m; function f(uint a, uint b) public {"
              f" x = {SURFACE[op]}; }} }}")
    [s] = [s for s in stmts(c, "f") if s.op == op]
    assert len(s.operands) == ARITY[op]


def test_statement_and_literal_keep_only_what_a_run_reads():
    assert Statement._fields == (
        "sid", "op", "operands", "result", "callee", "targets")
    assert LiteralUse._fields == ("value", "address_position")


def test_hex_and_decimal_literals_lower_to_one_printed_constant():
    c = parse("contract T { function f() public { x = 0x10; y = 16; } }")
    consts = [s.operands[0] for s in stmts(c, "f") if s.op == "CONST"]
    assert consts == [Const(16), Const(16)]
    assert [k.render() for k in consts] == ["16", "16"]


def test_internal_call_requires_known_function():
    with pytest.raises(ParseError):
        parse("contract T { function f() public { call nope(); } }")


def test_internal_call_arity_checked():
    with pytest.raises(ParseError):
        parse("contract T { function g(uint a) internal { }"
              " function f() public { call g(); } }")


def test_harvest_constants_with_address_position():
    c = parse("contract T { mapping m; function f(uint x) public {"
              " m[0x42] = 90; y = x + 100; } }")
    numeric, addrs = harvest_constants(c)
    assert numeric == {0x42, 90, 100}
    assert addrs == {0x42}


def literal_uses(body: str) -> list:
    c = parse("contract T { address owner; uint n; mapping m;"
              " function g(address y) internal { }"
              " function f(address a, uint u) public { " + body + " } }")
    return [(u.value, u.address_position) for u in c.literal_uses]


@pytest.mark.parametrize("body,expected", [
    ("x = m[0x10];", [(0x10, True)]),
    ("m[0x10] = 5;", [(0x10, True), (5, False)]),
    ("m[1] = m[2] + 3;", [(1, True), (2, True), (3, False)]),
    ("require(msg.sender == 0x10);", [(0x10, True)]),
    ("require(0x10 == msg.sender);", [(0x10, True)]),
    ("if (a == 7) { x = 8; }", [(7, True), (8, False)]),
    ("require(owner == 9);", [(9, True)]),
    ("require(u == 7);", [(7, False)]),
    ("require(u < 7);", [(7, False)]),
    ("transfer(0x20, 3);", [(0x20, True), (3, False)]),
    ("transfer(a + 1, 3);", [(1, False), (3, False)]),
    ("selfdestruct(0x30);", [(0x30, True)]),
    ("delegatecall(0x40);", [(0x40, True)]),
    ("owner = 0x50; n = 0x60;", [(0x50, True), (0x60, False)]),
    ("b = msg.sender; b = 5; c = 6;", [(5, True), (6, False)]),
    ("b = 5; b = 6;", [(5, False), (6, False)]),
    ("call g(0x10);", [(0x10, False)]),
    ("call ext.ping(0x10, 2);", [(0x10, False), (2, False)]),
    ("return 5;", [(5, False)]),
    ("require(!(a == 1));", [(1, True)]),
    ("require(!(u == 1));", [(1, False)]),
], ids=["key-read", "key-write", "key-order", "sender-eq", "eq-sender",
        "if-param-eq", "storage-eq", "uint-eq", "uint-lt", "transfer",
        "transfer-arith", "selfdestruct", "delegatecall", "storage-assign",
        "local-reassign", "uint-local-reassign", "internal-call",
        "external-call", "return", "not-address-eq", "not-uint-eq"])
def test_literal_address_positions(body, expected):
    assert literal_uses(body) == expected


def test_harvest_no_literals():
    c = parse("contract T { function f(uint x) public { y = x; } }")
    assert harvest_constants(c) == (frozenset(), frozenset())


def test_harvest_huge_uint_not_address_like():
    c = parse(f"contract T {{ function f() public {{ x = {2**200}; }} }}")
    numeric, addrs = harvest_constants(c)
    assert numeric == {2 ** 200}
    assert addrs == frozenset()


def test_mapping_access_lowering_shape():
    # every SHA3 wraps exactly one CONCAT whose second operand is the
    # declared slot constant of some mapping
    for name in ("safe.svc", "guarded_selfdestruct.svc"):
        contract = fixture_contract(name)
        mapping_slots = {d.slot for d in contract.storage
                         if d.kind == "mapping"}
        for f in contract.functions:
            body = list(f.statements())
            concat_results = {s.result: s for s in body if s.op == "CONCAT"}
            for s in body:
                if s.op == "SHA3":
                    concat = concat_results[s.operands[0]]
                    slot = concat.operands[1]
                    assert isinstance(slot, Const)
                    assert slot.value in mapping_slots


def test_mapping_slot_never_accessed_directly():
    for name in ("safe.svc", "guarded_selfdestruct.svc"):
        contract = fixture_contract(name)
        mapping_slots = {d.slot for d in contract.storage
                         if d.kind == "mapping"}
        for f in contract.functions:
            for s in f.statements():
                if s.op in ("SLOAD", "SSTORE"):
                    addr = s.operands[0]
                    if isinstance(addr, Const):
                        assert addr.value not in mapping_slots


def test_validate_rejects_stale_structures():
    c = parse("contract T { function f() public { } }")
    c.functions[0].blocks[0].statements.clear()
    with pytest.raises(IRError):
        validate(c)


@pytest.mark.parametrize("op, operands", [
    ("NOT", ("a", "a")), ("ADD", ("a",)), ("SHA3", ()), ("EQ", ("a",) * 3)])
def test_validate_rejects_an_operator_with_the_wrong_operand_count(
        op, operands):
    # the engine would fail on it with "no operator NOT of 2 operands"
    c = parse("contract T { function f(uint a) public { } }")
    c.functions[0].blocks[0].statements.insert(
        0, Statement(99, op, operands, "x"))
    with pytest.raises(IRError, match=f"^f: {op} takes {ARITY[op]} operands,"
                                      f" s99 has {len(operands)}$"):
        validate(c)


def test_reassigned_local_starting_with_t_is_not_a_temp():
    c = parse("contract T { function f(uint x) public {"
              " total = x; total = total + 1; return total; } }")
    validate(c)
    results = [s.result for s in stmts(c, "f")]
    assert results.count("total") == 2


def flow_contracts():
    yield from (fixture_contract(p.name) for p in sorted(FIXTURES.glob("*.svc")))
    rng = random.Random(11)
    for i in range(40):
        yield parse(gen_oracle_contract(rng, i)[0])
    # both arms return, so the join block after the if is unreachable
    yield parse("contract T { function f(uint a) public {"
                " if (a < 3) { return 1; } else { return 2; } } }")


def test_flow_after_matches_per_statement_search():
    for c in flow_contracts():
        for fn in c.functions:
            after = flow_after(fn)
            sids = [s.sid for s in fn.statements()]
            assert sorted(after) == sorted(sids)
            for sid in sids:
                assert after[sid] == statements_after(fn, sid), (c.name, sid)


# b0 ends in the branch on t0 = a < 3; b1 and b2 are the arms, b3 the join
ARMS = parse("contract T { function f(uint a) public {"
             " x = a; if (a < 3) { y = 1; x = x + 1; }"
             " else { y = 2; call tok.ping(a); } return x + y; } }")


def live(fn, index: int) -> frozenset:
    return live_in(fn)[fn.blocks[index].bid]


def test_live_in_drops_the_branch_temp():
    fn = ARMS.functions[0]
    assert fn.blocks[0].terminator.operands == ("t0",)
    assert "t0" not in live(fn, 1) | live(fn, 2)


def test_live_in_carries_a_local_read_after_the_join_through_both_arms():
    fn = ARMS.functions[0]
    assert live(fn, 3) == {"x", "y"}
    assert "x" in live(fn, 1) and "x" in live(fn, 2)


def test_live_in_kills_a_local_assigned_in_both_arms_before_a_read():
    fn = ARMS.functions[0]
    assert [b.statements[0].result for b in fn.blocks[1:3]] == ["y", "y"]
    assert "y" not in live(fn, 0) | live(fn, 1) | live(fn, 2)


def test_live_in_never_holds_a_contract_symbol():
    fn = ARMS.functions[0]
    assert fn.blocks[2].statements[1].operands == ("@tok", "a")
    assert live(fn, 2) == {"a", "x"}
    assert not any(name.startswith("@")
                   for names in live_in(fn).values() for name in names)


def test_live_in_reads_before_it_assigns():
    fn = ARMS.functions[0]
    bump = fn.blocks[1].statements[1]
    assert (bump.result, bump.operands[0]) == ("x", "x")
    assert live(fn, 1) == {"x"}
    # x = a assigns x before any read, so only a is live at the entry
    assert live(fn, 0) == {"a"}


def live_contracts():
    yield from flow_contracts()
    rng = random.Random(5)
    for i in range(20):
        yield parse(gen_storage_contract(rng, i)[0])
        yield parse(gen_rounds_contract(rng, i))
    for arms in (1, 5, 12):
        yield parse(branchy_like(arms))


def test_live_in_matches_per_variable_search():
    for c in live_contracts():
        for fn in c.functions:
            got = live_in(fn)
            assert sorted(got) == sorted(b.bid for b in fn.blocks)
            for bid, names in got.items():
                assert names == variables_live_at(fn, bid), (c.name, bid)


def test_topo_blocks_rejects_a_cycle():
    c = parse("contract T { function f(uint a) public {"
              " if (a < 3) { x = 1; } } }")
    fn = c.functions[0]
    stmts = fn.blocks[-1].statements
    stmts[-1] = stmts[-1]._replace(targets=(fn.entry_block,), op="JUMP")
    with pytest.raises(IRError, match="cycle"):
        validate(c)


def test_long_if_chain_parses():
    # the CFG is a chain of 2,400 blocks, deeper than the Python stack
    c = parse("contract T { function f(uint a) public { x = 1; "
              + "if (a < 3) { x = 2; } " * 1200 + "} }")
    blocks = c.functions[0].topo_blocks()
    assert len(blocks) == len(c.functions[0].blocks)


@pytest.mark.parametrize("body", [
    "x = " + "(" * 3000 + "a" + ")" * 3000 + ";",
    "x = " + "!" * 3000 + "a;",
    "if (a < 3) { " * 400 + "x = 2;" + " }" * 400,
], ids=["parens", "negations", "ifs"])
def test_deep_nesting_is_a_parse_error(body):
    # where the parser gives up depends on the depth of the caller's stack
    with pytest.raises(ParseError, match="nesting too deep") as err:
        parse("contract T { function f(uint a) public {\n" + body + "\n} }")
    assert err.value.line == 2


def test_flat_chain_parses_at_any_length(capsys, tmp_path):
    # a left-associative chain is read in a loop, not by recursion
    source = ("contract T { function f(uint a) public {\n x = "
              + " + ".join(["a"] * 2000) + ";\n} }")
    binops = [s for s in stmts(parse(source), "f") if s.op in BINOPS]
    assert len(binops) == 1999
    assert (binops[0].result, binops[0].operands) == ("t0", ("a", "a"))
    assert (binops[-1].result, binops[-1].operands) == ("x", ("t1997", "a"))
    assert {s.op for s in binops} == {"ADD"}
    chain = tmp_path / "chain.svc"
    chain.write_text(source)
    assert main(["scan", str(chain)]) == 0
    assert json.loads(capsys.readouterr().out)["warnings"] == []
