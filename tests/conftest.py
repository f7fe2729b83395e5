"""Shared fixtures: parsed sample contracts and generated fixture corpora."""

from __future__ import annotations

from pathlib import Path

import pytest

from symvalic.parser import parse

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text()


def fixture_contract(name: str):
    return parse(fixture_text(name))


@pytest.fixture(scope="session")
def safe_contract():
    return fixture_contract("safe.svc")


@pytest.fixture(scope="session")
def whichpaths_contract():
    return fixture_contract("whichpaths.svc")


@pytest.fixture(scope="session")
def guarded_contract():
    return fixture_contract("guarded_selfdestruct.svc")


@pytest.fixture(scope="session")
def unguarded_contract():
    return fixture_contract("unguarded_selfdestruct.svc")


# a parse error at 3:12, the second declaration's name
DUPLICATE_FUNCTION = ("contract Dup {\n  function f() public { }\n"
                      "  function f() public { }\n}\n")


# --- generated corpora -----------------------------------------------------


def gate_source(name: str, value: str) -> str:
    """A contract that pays an address parameter required to equal value;
    0xbeef and 48879 spell one constant two ways."""
    return (f"contract {name} {{\n"
            "    function pay(address to) public {\n"
            f"        require(to == {value});\n"
            "        transfer(to, 1);\n"
            "    }\n"
            "}\n")


def write_swap_corpus(directory: Path, benign: int = 19) -> Path:
    """benign contracts passing a storage constant to dex.swap, plus one
    forwarding a tainted address parameter."""
    directory.mkdir(parents=True, exist_ok=True)
    for i in range(benign):
        name = f"SwapUser{i:02d}"
        (directory / f"{name.lower()}.svc").write_text(
            f"contract {name} {{\n"
            f"    address stoken;\n\n"
            f"    function constructor() internal {{\n"
            f"        stoken = {hex(0x1000 + i)};\n"
            f"    }}\n\n"
            f"    function rebalance() public {{\n"
            f"        call dex.swap(stoken, 5);\n"
            f"    }}\n"
            f"}}\n")
    (directory / "swaptainted.svc").write_text(
        "contract SwapTainted {\n"
        "    function doSwap(address tok) public {\n"
        "        call dex.swap(tok, 5);\n"
        "    }\n"
        "}\n")
    return directory


def write_reentrancy_corpus(directory: Path) -> Path:
    """Two-level yield chain: Hub.notify yields to its parameter,
    Wrapper.relay forwards to it, Victim writes storage after calling relay."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "hub.svc").write_text(
        "contract Hub {\n"
        "    function notify(address target) public {\n"
        "        call target.ping();\n"
        "    }\n"
        "}\n")
    (directory / "wrapper.svc").write_text(
        "contract Wrapper {\n"
        "    function relay(address t) public {\n"
        "        call hub.notify(t);\n"
        "    }\n"
        "}\n")
    (directory / "victim.svc").write_text(
        "contract Victim {\n"
        "    mapping balances;\n\n"
        "    function withdraw() public {\n"
        "        call wrapper.relay(msg.sender);\n"
        "        balances[msg.sender] = 0;\n"
        "    }\n"
        "}\n")
    return directory


BENIGN_TEMPLATES = (
    # guarded transfer: checks-effects, owner-only money movement
    "contract {name} {{\n"
    "    address owner;\n"
    "    mapping balances;\n\n"
    "    function constructor() internal {{\n"
    "        owner = msg.sender;\n"
    "    }}\n\n"
    "    function payout(address to, uint amount) public {{\n"
    "        require(msg.sender == owner);\n"
    "        require(amount < {bound});\n"
    "        balances[to] = 0;\n"
    "        transfer(to, amount);\n"
    "    }}\n"
    "}}\n",
    # plain arithmetic getter/setter over its own storage
    "contract {name} {{\n"
    "    uint total;\n\n"
    "    function add(uint amount) public {{\n"
    "        total = total + amount * {rate} / 100;\n"
    "    }}\n\n"
    "    function peek() public {{\n"
    "        t = total;\n"
    "        return t;\n"
    "    }}\n"
    "}}\n",
    # unguarded external call with constant (untainted) arguments
    "contract {name} {{\n"
    "    address feed;\n\n"
    "    function constructor() internal {{\n"
    "        feed = {addr};\n"
    "    }}\n\n"
    "    function poke() public {{\n"
    "        call oracle.refresh(feed, {rate});\n"
    "    }}\n"
    "}}\n",
    # guarded selfdestruct behind an authorization mapping
    "contract {name} {{\n"
    "    mapping authorized;\n\n"
    "    function constructor() internal {{\n"
    "        authorized[msg.sender] = 1;\n"
    "    }}\n\n"
    "    function retire(address heir) public {{\n"
    "        require(authorized[msg.sender]);\n"
    "        selfdestruct(heir);\n"
    "    }}\n"
    "}}\n",
    # owner-guarded delegatecall upgrade hook
    "contract {name} {{\n"
    "    address owner;\n"
    "    address impl;\n\n"
    "    function constructor() internal {{\n"
    "        owner = msg.sender;\n"
    "        impl = {addr};\n"
    "    }}\n\n"
    "    function upgrade() public {{\n"
    "        require(msg.sender == owner);\n"
    "        delegatecall(impl);\n"
    "    }}\n"
    "}}\n",
)


def write_benign_corpus(directory: Path, count: int = 50) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    for i in range(count):
        template = BENIGN_TEMPLATES[i % len(BENIGN_TEMPLATES)]
        name = f"Benign{i:02d}"
        (directory / f"{name.lower()}.svc").write_text(template.format(
            name=name, bound=100 + i, rate=3 + (i % 7),
            addr=hex(0x2000 + i)))
    return directory


@pytest.fixture(scope="session")
def swap_corpus(tmp_path_factory):
    return write_swap_corpus(tmp_path_factory.mktemp("swap_corpus"))


@pytest.fixture(scope="session")
def reentrancy_corpus(tmp_path_factory):
    return write_reentrancy_corpus(tmp_path_factory.mktemp("reent_corpus"))


@pytest.fixture(scope="session")
def benign_corpus(tmp_path_factory):
    return write_benign_corpus(tmp_path_factory.mktemp("benign_corpus"))
