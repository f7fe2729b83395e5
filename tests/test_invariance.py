"""Rewrites of a contract that must leave its output alone: respelling its
integer literals in hex or in decimal, and reordering its functions. A
constant prints by its value alone, so neither the source's spelling nor
the order in which equal values reach the engine shows in a document."""

import json

import pytest

from symvalic.cli import main
from symvalic.parser import _TOKEN, parse
from symvalic.valueflow import analyze

from conftest import FIXTURES, fixture_contract

FIXTURE_NAMES = sorted(p.name for p in FIXTURES.glob("*.svc"))
# branchy004 trims values at the value bound, and which values a trim keeps
# depends on the order in which they arrive, so the order of its functions
# shows in its facts
ORDER_DEPENDENT = ("branchy004.svc",)

# one value that two functions store, spelled a different way in each
LIMIT = """contract Limit {
    uint limit;

    function a() public {
        limit = 42;
    }

    function b() public {
        limit = 0x2a;
    }
}
"""


def respell(text: str, spell) -> str:
    """text with every integer literal written as spell(its value)."""
    out = []
    for m in _TOKEN.finditer(text):
        word = m.group()
        if m.lastgroup == "number":
            value = int(word, 16) if word[1:2] in ("x", "X") else int(word)
            word = spell(value)
        out.append(word)
    return "".join(out)


def outputs(capsys, path) -> list:
    """The exit status and stdout of `analyze` and of `scan` on path."""
    got = []
    for command in ("analyze", "scan"):
        got += [main([command, str(path)]), capsys.readouterr().out]
    return got


def reordered(contract):
    """contract with its functions in reverse order, so that the engine
    meets them the other way round; statement ids stay as they were."""
    return contract._replace(functions=contract.functions[::-1])


def document(contract) -> str:
    return analyze(contract).to_json_text()


def test_respell_rewrites_literals_only():
    text = "x = 0X1f + 12; // 7 0x2\ny = a1;"
    assert respell(text, hex) == "x = 0x1f + 0xc; // 7 0x2\ny = a1;"
    assert respell(text, str) == "x = 31 + 12; // 7 0x2\ny = a1;"


@pytest.mark.parametrize("spell", [hex, str], ids=["hex", "decimal"])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_respelled_literals_leave_analyze_and_scan_alone(capsys, tmp_path,
                                                         name, spell):
    path = tmp_path / name
    path.write_text(respell((FIXTURES / name).read_text(), spell))
    assert outputs(capsys, path) == outputs(capsys, FIXTURES / name)


def test_two_spellings_of_one_stored_value_print_alike_in_either_order():
    contract = parse(LIMIT)
    text = document(contract)
    assert document(reordered(contract)) == text
    storage = json.loads(text)["storage"]
    assert [(row["address"], row["value"]) for row in storage] == [("0", "42")]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_reordered_functions_leave_the_document_alone(name):
    contract = fixture_contract(name)
    if name in ORDER_DEPENDENT:
        assert any("trimmed" in note for note in analyze(contract).notes)
    else:
        assert document(reordered(contract)) == document(contract)


def test_gated_rounds_prints_a_stored_literal_by_its_value():
    # the constructor's fee = 3 stores 3 at slot 3, one constant twice
    text = document(fixture_contract("gated_rounds.svc"))
    rows = {(row["address"], row["value"])
            for row in json.loads(text)["storage"]}
    assert ("3", "3") in rows and ("0x3", "0x3") not in rows
