"""Token-level mutations of the fixtures through the CLI: every input ends
in a document, or in one diagnostic line and exit 2, never a traceback."""

import json
import random
import re

from symvalic.cli import main
from symvalic.parser import KEYWORDS

from conftest import FIXTURES
from test_acceptance import Stopwatch

# the surface tokens, comments and malformed hex literals among them
TOKEN = re.compile(r"//[^\n]*|0[xX]\w*|\w+|&&|\|\||==|\S")
# tokens the fixtures do not hold: stray characters, a non-ASCII name, a
# bare hex prefix, literals too wide for a word and an overlong
# zero-padded one
EXTRA = ("$", "#", "ä", "@", "0x", "0x" + "f" * 65, "9" * 79,
         "0" * 4401 + "1", "115792089237316195423570985008687907853269984"
         "665640564039457584007913129639936")
OPERATORS = {"+", "-", "*", "/", "%", "<", ">", "==", "&&", "||"}
MUTATIONS = 1000


def token_class(tok: str) -> str:
    """number, keyword, name, operator, or the token itself."""
    if tok[0].isdigit():
        return "number"
    if tok in KEYWORDS:
        return "keyword"
    if tok[0].isalnum() or tok[0] == "_":
        return "name"
    return "operator" if tok in OPERATORS else tok


def mutate(rng: random.Random, toks: list, vocab: dict) -> list:
    """toks after one random deletion, duplication, swap of neighbours,
    insertion or replacement, and at times one or two more. A replacement
    takes any token, or more often one of the same class (see
    token_class), so that enough mutants parse to reach the engine."""
    toks = list(toks)
    for _ in range(rng.choice((1, 1, 1, 2, 3))):
        i = rng.randrange(len(toks))
        kind = rng.randrange(7)
        if kind == 0 and len(toks) > 1:
            del toks[i]
        elif kind == 1:
            toks.insert(i, toks[i])
        elif kind == 2 and i + 1 < len(toks):
            toks[i], toks[i + 1] = toks[i + 1], toks[i]
        elif kind == 3:
            toks.insert(i, rng.choice(vocab["any"]))
        elif kind == 4:
            toks[i] = rng.choice(vocab["any"])
        else:
            toks[i] = rng.choice(vocab[token_class(toks[i])])
    return toks


def assert_one_outcome(capsys, argv: list):
    code = main(argv)
    out, err = capsys.readouterr()
    if code == 2:
        assert out == "" and err.count("\n") == 1 and err.endswith("\n"), \
            (argv, code, err)
        # a parse error at its line:col; a contract that parses is
        # analyzed, so an engine failure would fail here
        assert re.match(rf"{re.escape(argv[-1])}:\d+:\d+: ", err), err
    else:
        assert code in (0, 1, 3), (argv, code, err)
        assert err == "", (argv, code, err)
        assert isinstance(json.loads(out), dict)
    return code


def test_token_mutations_end_in_a_document_or_one_line(capsys, tmp_path):
    with Stopwatch(60.0, f"{MUTATIONS} token mutations"):
        rng = random.Random(18)
        sources = [TOKEN.findall(p.read_text())
                   for p in sorted(FIXTURES.glob("*.svc"))]
        vocab: dict = {"any": []}
        for tok in sorted({t for toks in sources for t in toks}) + list(EXTRA):
            vocab["any"].append(tok)
            vocab.setdefault(token_class(tok), []).append(tok)
        path = tmp_path / "mutant.svc"
        codes = []
        # unmutated, the tokens one a line make a valid contract
        path.write_text("\n".join(sources[0]))
        assert assert_one_outcome(capsys, ["analyze", str(path)]) == 0
        for _ in range(MUTATIONS):
            path.write_text("\n".join(mutate(rng, rng.choice(sources), vocab)))
            for command in ("analyze", "scan"):
                codes.append(assert_one_outcome(capsys, [command, str(path)]))
        # about one mutant in eight parses and reaches the engine
        assert len(codes) - codes.count(2) >= 2 * MUTATIONS // 10
