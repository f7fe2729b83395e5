"""Mutations of the fixtures. Token-level ones through the CLI: every input
ends in a document, or in one diagnostic line and exit 2, never a
traceback. Statement-level ones through the API: a mutant fails only to
parse, and its analysis survives a trip through the analysis cache."""

import copy
import json
import random
import re
from typing import NamedTuple, Optional

from symvalic.analysis_cache import load, write
from symvalic.cli import main
from symvalic.clients import run_detectors
from symvalic.parser import KEYWORDS, ParseError, parse
from symvalic.valueflow import AnalysisConfig, analyze, assemble

from conftest import FIXTURES
from test_acceptance import Stopwatch
from test_join import branchy_like

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


# --- statement-level mutations ---------------------------------------------------


class If(NamedTuple):
    head: list              # the tokens of `if (cond)`
    then: list              # statements
    orelse: Optional[list]  # statements, or None without an else


def statements(toks: list, i: int) -> tuple:
    """The statements of the body that opens at toks[i] (each a token list
    or an If), and the index after the body's closing brace."""
    out: list = []
    i += 1
    while toks[i] != "}":
        if toks[i] == "if":
            j = toks.index("{", i)
            then, k = statements(toks, j)
            orelse = None
            if toks[k] == "else":
                orelse, k = statements(toks, k + 1)
            out.append(If(toks[i:j], then, orelse))
            i = k
        else:
            j = toks.index(";", i) + 1
            out.append(toks[i:j])
            i = j
    return out, i + 1


def split(text: str) -> list:
    """The tokens of text outside function bodies, and each function body
    as its statements (a list), in order."""
    toks = [t for t in TOKEN.findall(text) if not t.startswith("//")]
    parts: list = []
    i = 0
    while i < len(toks):
        if toks[i] == "{" and toks[i - 1] in ("public", "internal"):
            body, i = statements(toks, i)
            parts.append(body)
        else:
            parts.append(toks[i])
            i += 1
    return parts


def flat(stmts: list):
    for s in stmts:
        if isinstance(s, If):
            yield from s.head
            yield from ("{", *flat(s.then), "}")
            if s.orelse is not None:
                yield from ("else", "{", *flat(s.orelse), "}")
        else:
            yield from s


def join(parts: list) -> str:
    return " ".join(t for p in parts
                    for t in (("{", *flat(p), "}") if isinstance(p, list)
                              else (p,)))


def bodies(stmts: list):
    """stmts and every statement list nested in it."""
    yield stmts
    for s in stmts:
        if isinstance(s, If):
            yield from bodies(s.then)
            if s.orelse is not None:
                yield from bodies(s.orelse)


def mutate_statements(rng: random.Random, parts: list) -> list:
    """A copy of parts after one or two deletions, duplications or swaps
    of whole statements in one body, or swaps of an if's arms."""
    parts = copy.deepcopy(parts)
    for _ in range(rng.choice((1, 1, 2))):
        lists = [b for p in parts if isinstance(p, list) for b in bodies(p)
                 if b]
        if not lists:
            break
        body = rng.choice(lists)
        i = rng.randrange(len(body))
        kind = rng.randrange(4)
        ifs = [k for k, s in enumerate(body) if isinstance(s, If)]
        if kind == 0:
            del body[i]
        elif kind == 1:
            body.insert(i, copy.deepcopy(body[i]))
        elif kind == 2:
            j = rng.randrange(len(body))
            body[i], body[j] = body[j], body[i]
        elif ifs:
            k = rng.choice(ifs)
            body[k] = If(body[k].head, body[k].orelse or [], body[k].then)
    return parts


def test_statement_mutations_parse_or_fail_to_parse_and_cache_exactly(
        tmp_path):
    with Stopwatch(60.0, f"{MUTATIONS} statement mutations"):
        texts = [p.read_text() for p in sorted(FIXTURES.glob("*.svc"))]
        sources = [split(text) for text in texts + [branchy_like(5)]]
        assert [parse(join(s)).name for s in sources[:-1]] == \
            [parse(text).name for text in texts]
        rng = random.Random(19)
        config = AnalysisConfig()
        path = tmp_path / "mutant.analysis.json"
        parsed, checked = 0, {}
        for _ in range(MUTATIONS):
            text = join(mutate_statements(rng, rng.choice(sources)))
            try:
                contract = parse(text)
            except ParseError:
                continue
            parsed += 1
            if text in checked:
                continue
            fresh = analyze(contract, config)
            checked[text] = not fresh.truncated
            if fresh.truncated:
                continue
            write(path, "key", fresh)
            cached = assemble(contract, config, load(path, "key"))
            # equal fields in order (Sym equality takes in `bound`), and
            # the same printed forms
            assert tuple(cached) == tuple(fresh), text
            assert cached.to_json_text() == fresh.to_json_text(), text
            assert run_detectors(cached) == run_detectors(fresh), text
        # about five mutants in six parse; duplicates are checked once
        assert parsed >= 8 * MUTATIONS // 10
        assert sum(checked.values()) >= MUTATIONS // 10
