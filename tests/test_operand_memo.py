"""The operand memos and the join. The solver substitution of each
expression and dependency map, and the combination of each pair of maps,
are computed once per analysis; a variable operand's candidates and index
are built once per statement and substitution, and joined without forming
the cartesian product. The result equals that of computing each anew, and
that of product-and-prune over operands resolved anew per alternative."""

import random

from symvalic.parser import parse
from symvalic.valueflow import _Engine

from conftest import FIXTURES, fixture_contract
from helpers import (
    NoMemoEngine, ProductEngine, assert_same_result, gen_gated_contract,
    gen_rounds_contract, gen_storage_contract,
)
from test_acceptance import Stopwatch
from test_join import branchy_like


def memo_inputs() -> list:
    contracts = [fixture_contract(p.name)
                 for p in sorted(FIXTURES.glob("*.svc"))]
    storage, rounds = random.Random(5), random.Random(3)
    for i in range(20):
        contracts.append(parse(gen_storage_contract(storage, i)[0]))
        contracts.append(parse(gen_rounds_contract(rounds, i)))
    # pair's branch and route's require adopt solver substitutions
    for seed in (7, 11):
        rng = random.Random(seed)
        contracts += [parse(gen_gated_contract(rng, i)) for i in range(6)]
    contracts.append(parse(branchy_like(12)))
    return contracts


def test_memos_equal_no_memo():
    with Stopwatch(60.0, "operand memos against no memo"):
        for contract in memo_inputs():
            assert_same_result(_Engine, NoMemoEngine, contract)


def test_whole_analysis_equals_product_and_prune():
    with Stopwatch(60.0, "indexed join against product-and-prune"):
        for contract in memo_inputs():
            assert_same_result(_Engine, ProductEngine, contract)
