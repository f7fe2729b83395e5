"""The result document: AnalysisResult.to_json_text writes the bytes of
json.dumps(doc, indent=2, sort_keys=True) itself, rows in their order."""

import json
import random

import pytest

from symvalic.cli import main
from symvalic.parser import parse
from symvalic.valueflow import AnalysisConfig, analyze

from conftest import FIXTURES, write_swap_corpus
from helpers import (
    gen_oracle_contract, gen_rounds_contract, gen_storage_contract,
)
from test_acceptance import Stopwatch
from test_join import branchy_like

# a non-ASCII contract, variable and parameter, and 42 spelled both ways
UNICODE = """contract Zähler {
    uint stänD;

    function setzen(uint wärt, address zíel) public {
        stänD = wärt + 0x2a;
        größe = 42;
        require(zíel == 0x2a);
        transfer(zíel, größe);
        return größe;
    }
}
"""


def canonical(text: str) -> str:
    return json.dumps(json.loads(text), indent=2, sort_keys=True)


def deps_key(row: dict) -> tuple:
    return str(row["local"]), str(row["tx"])


def assert_document(result):
    """The text is json.dumps's layout of itself, and every list of rows
    is in its documented order."""
    text = result.to_json_text()
    assert canonical(text) == text
    doc = json.loads(text)
    assert doc == result.to_json_dict()
    rows = doc["inferences"]
    assert rows == sorted(rows, key=lambda r: (
        r["function"], r["var"], r["value"], *deps_key(r)))
    rows = doc["reachability"]
    assert rows == sorted(rows, key=lambda r: (r["stmt"], *deps_key(r)))
    value_lists = list(doc["returns"].values())
    for call in doc["externalCalls"]:
        value_lists += [call["target"], *call["args"]]
    for rows in value_lists:
        assert rows == sorted(rows, key=lambda r: (r["value"], *deps_key(r)))
    return text


def test_fixture_documents_are_canonical():
    for path in sorted(FIXTURES.glob("*.svc")):
        assert_document(analyze(parse(path.read_text())))


def test_generated_documents_are_canonical():
    with Stopwatch(30.0, "generated result documents"):
        rng = random.Random(1606)
        texts = [branchy_like(30)]
        for i in range(15):
            texts += [gen_oracle_contract(rng, i)[0],
                      gen_storage_contract(rng, i)[0],
                      gen_rounds_contract(rng, i)]
        for seed in (1, 7):
            for text in texts:
                assert_document(analyze(parse(text),
                                        AnalysisConfig(seed=seed)))


def test_non_ascii_names_are_escaped_and_constants_print_by_value():
    text = assert_document(analyze(parse(UNICODE)))
    assert text.isascii()
    assert '"contract": "Z\\u00e4hler"' in text
    assert '"var": "gr\\u00f6\\u00dfe"' in text
    # dependency map keys, as ensure_ascii writes them; 0x2a prints as 42
    assert '"w\\u00e4rt": ' in text
    assert '"z\\u00edel": "42"' in text
    doc = json.loads(text)
    values = {row["value"] for row in doc["inferences"]}
    assert "42" in values and "0x2a" not in values


@pytest.fixture
def iterencode_calls(monkeypatch):
    """Calls of the pure-Python JSON encoder's factory, which json.dumps
    uses instead of the C encoder whenever indent is set."""
    calls = []
    factory = json.encoder._make_iterencode

    def counted(*args, **kwargs):
        calls.append(args)
        return factory(*args, **kwargs)

    monkeypatch.setattr(json.encoder, "_make_iterencode", counted)
    return calls


def test_reports_bypass_the_python_json_encoder(capsys, tmp_path,
                                                iterencode_calls):
    corpus = write_swap_corpus(tmp_path / "corpus", benign=3)
    assert main(["corpus-build", str(corpus), "--jobs", "1"]) == 0
    assert len(list((corpus / "out").glob("*.result.json"))) == 4
    assert len(iterencode_calls) == 1  # the index on stdout
    iterencode_calls.clear()
    assert main(["analyze", str(FIXTURES / "safe.svc")]) == 0
    assert iterencode_calls == []
