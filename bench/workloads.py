"""Seeded input generators for the benchmark workloads.

Every generator returns the source files it wrote together with the answer
the analyzer must give on them. The answers follow from how each contract
is built, never from a recorded run:

* a sensitive operation (``transfer``/``selfdestruct``) behind
  ``require(msg.sender == owner)`` is reachable only by the owner, so it
  yields no warning; without the guard it is reachable by an untrusted
  caller (UNGUARDED_SENSITIVE), and when its address argument is a
  parameter the caller also controls that argument (TAINTED_SENSITIVE_ARG);
* corpus facts are frequency counts over call sites, so the planted
  contracts fix every count, and the contracts that deviate from a fact
  are exactly the planted ones (CORPUS_ANOMALY).

Generated local names follow the scheme of the test-suite generators
(``v0``, ``v1``, ...; ``t`` in the getter template, as in the tests).
Contract shapes and counts are fixed per workload; the seed varies the
constants and, in the corpora, which contracts are the planted ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

UNGUARDED = "UNGUARDED_SENSITIVE"
TAINTED = "TAINTED_SENSITIVE_ARG"
ANOMALY = "CORPUS_ANOMALY"


@dataclass
class Expected:
    """Known answers for one generated input set.

    verdicts: contract name -> sorted ((function, warning kind), ...).
    facts: the symvalic-facts/1 rows corpus inference must reach, as
    (sensitiveArgs, usuallyGuarded, reentrancyAllowing) tuples of tuples.
    """

    verdicts: dict = field(default_factory=dict)
    facts: tuple = ()
    fact_rounds: int = 0


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _write(directory: Path, name: str, text: str) -> None:
    (directory / f"{name.lower()}.svc").write_text(text)


# ---------------------------------------------------------------------------
# audit-branchy: a family like the "Big" contract
# ---------------------------------------------------------------------------

_BRANCH_ARMS = (
    ("v0 == {p}", "v2 = v2 + s1;", "v2 = v2 - 1;"),
    ("v1 < {p}", "v1 = v1 + v0;", "v1 = v1 * 2;"),
    ("v2 > s1", "v2 = v2 / 2;", None),
    ("v0 < v1", "v2 = v2 + v1;", "v0 = v0 + {c};"),
    ("{p} == {c}", "v1 = s0;", "v2 = v2 * {c};"),
)


def _chain(first_arm: int, branches: int, params: list, consts: list
           ) -> list:
    lines = []
    for j in range(branches):
        k = first_arm + j
        cond, then, other = _BRANCH_ARMS[k % len(_BRANCH_ARMS)]
        fill = {"p": params[k % len(params)], "c": consts[k % len(consts)]}
        line = f"if ({cond.format(**fill)}) {{ {then.format(**fill)} }}"
        if other is not None:
            line += f" else {{ {other.format(**fill)} }}"
        lines.append(line)
    return lines


def branchy_shape(index: int) -> tuple:
    """(uint params, chained ifs, pay guarded, kill guarded, pay to a
    parameter, kill to a parameter) of family member ``index``.

    Shapes, like the choice of branch arms and their operands, are a fixed
    function of the index, so every seed draws the same mix of sizes and
    guards; the seed varies the constants. The first 9 members cover the
    3 x 3 grid of sizes.
    """
    guards = (index + index // 9) % 4
    dests = (index // 3 + index // 12) % 4
    return (1 + index % 3, 1 + (index // 3) % 3, bool(guards & 1),
            bool(guards & 2), bool(dests & 1), bool(dests & 2))


def branchy_contract(rng: random.Random, index: int) -> tuple:
    """(name, source, expected verdict) for one branch-heavy contract.

    Four entry points like Big: a storage writer whose values later rounds
    read, a function ending in ``transfer`` after a chain of ifs over
    mapping and scalar storage and uint parameters, a function ending in
    ``selfdestruct``, and a read-only getter.
    """
    params, branches, pay_guarded, kill_guarded, pay_to_param, \
        kill_to_param = branchy_shape(index)
    name = f"Branchy{index:03d}"
    consts = rng.sample(range(2, 61), 3)  # distinct: a fixed seed-set size
    key = rng.randint(0x40, 0x7F)
    uparams = [f"p{i}" for i in range(params)]
    verdict = set()

    def guard(fn: str, guarded: bool, arg_is_param: bool) -> list:
        if guarded:
            return ["require(msg.sender == owner);"]
        verdict.add((fn, UNGUARDED))
        if arg_is_param:
            verdict.add((fn, TAINTED))
        return []

    pay = guard("pay", pay_guarded, pay_to_param)
    pay += ["v0 = m0[to];", "v1 = s0;", f"v2 = {uparams[0]};"]
    pay += _chain(index, branches, uparams, consts)
    pay.append(f"transfer({'to' if pay_to_param else 'owner'}, v2);")

    kill = guard("kill", kill_guarded, kill_to_param)
    kill += ["v0 = s0 + q0;", f"v1 = m0[{hex(key)}];", "v2 = q0;"]
    kill += _chain(index + 2, max(1, branches - 1), ["q0"], consts)
    kill.append(f"selfdestruct({'heir' if kill_to_param else 'owner'});")

    sig = ", ".join(["address to"] + [f"uint {p}" for p in uparams])
    body = "\n        ".join
    text = (
        f"contract {name} {{\n"
        f"    address owner;\n    uint s0;\n    uint s1;\n    mapping m0;\n\n"
        f"    function constructor() internal {{\n"
        f"        owner = msg.sender;\n"
        f"        s0 = {consts[0]};\n"
        f"        m0[{hex(key)}] = {consts[1]};\n"
        f"    }}\n\n"
        f"    function setS(uint w, address k) public {{\n"
        f"        s1 = w;\n        m0[k] = w;\n    }}\n\n"
        f"    function pay({sig}) public {{\n        {body(pay)}\n    }}\n\n"
        f"    function kill(address heir, uint q0) public {{\n"
        f"        {body(kill)}\n    }}\n\n"
        f"    function level() public {{\n"
        f"        v0 = s0 + s1;\n        return v0;\n    }}\n"
        f"}}\n")
    return name, text, tuple(sorted(verdict))


def write_audit_branchy(directory: Path, seed: int, count: int) -> Expected:
    rng = _rng("audit-branchy", seed)
    directory.mkdir(parents=True, exist_ok=True)
    expected = Expected()
    for i in range(count):
        name, text, verdict = branchy_contract(rng, i)
        _write(directory, name, text)
        expected.verdicts[name] = verdict
    return expected


# ---------------------------------------------------------------------------
# corpus-small: many small contracts, facts from call-site counts
# ---------------------------------------------------------------------------

BENIGN_TEMPLATES = (
    # owner-only money movement, checks-effects order
    "contract {name} {{\n"
    "    address owner;\n    mapping balances;\n\n"
    "    function constructor() internal {{\n        owner = msg.sender;\n    }}\n\n"
    "    function payout(address to, uint amount) public {{\n"
    "        require(msg.sender == owner);\n"
    "        require(amount < {bound});\n"
    "        balances[to] = 0;\n"
    "        transfer(to, amount);\n    }}\n}}\n",
    # arithmetic over its own storage
    "contract {name} {{\n    uint total;\n\n"
    "    function add(uint amount) public {{\n"
    "        total = total + amount * {rate} / 100;\n    }}\n\n"
    "    function peek() public {{\n        t = total;\n        return t;\n    }}\n}}\n",
    # unguarded external call with constant arguments
    "contract {name} {{\n    address feed;\n\n"
    "    function constructor() internal {{\n        feed = {addr};\n    }}\n\n"
    "    function poke() public {{\n"
    "        call oracle.refresh(feed, {rate});\n    }}\n}}\n",
    # selfdestruct behind an authorization mapping
    "contract {name} {{\n    mapping authorized;\n\n"
    "    function constructor() internal {{\n"
    "        authorized[msg.sender] = 1;\n    }}\n\n"
    "    function retire(address heir) public {{\n"
    "        require(authorized[msg.sender]);\n"
    "        selfdestruct(heir);\n    }}\n}}\n",
    # owner-only delegatecall upgrade hook
    "contract {name} {{\n    address owner;\n    address impl;\n\n"
    "    function constructor() internal {{\n"
    "        owner = msg.sender;\n        impl = {addr};\n    }}\n\n"
    "    function upgrade() public {{\n"
    "        require(msg.sender == owner);\n"
    "        delegatecall(impl);\n    }}\n}}\n",
    # owner-only external sweep to a fixed treasury
    "contract {name} {{\n    address owner;\n    address treasury;\n\n"
    "    function constructor() internal {{\n"
    "        owner = msg.sender;\n        treasury = {addr};\n    }}\n\n"
    "    function sweep() public {{\n"
    "        require(msg.sender == owner);\n"
    "        call vault.sweep(treasury);\n    }}\n}}\n",
)

_SWAP_BENIGN = (
    "contract {name} {{\n    address stoken;\n\n"
    "    function constructor() internal {{\n        stoken = {addr};\n    }}\n\n"
    "    function rebalance() public {{\n"
    "        call dex.swap(stoken, 5);\n    }}\n}}\n")
_SWAP_TAINTED = (
    "contract {name} {{\n"
    "    function doSwap(address tok) public {{\n"
    "        call dex.swap(tok, 5);\n    }}\n}}\n")
_REENTRANCY_CHAIN = (
    ("Hub", "contract Hub {\n"
            "    function notify(address target) public {\n"
            "        call target.ping();\n    }\n}\n"),
    ("Wrapper", "contract Wrapper {\n"
                "    function relay(address t) public {\n"
                "        call hub.notify(t);\n    }\n}\n"),
    ("Victim", "contract Victim {\n    mapping balances;\n\n"
               "    function withdraw() public {\n"
               "        call wrapper.relay(msg.sender);\n"
               "        balances[msg.sender] = 0;\n    }\n}\n"),
)
# planted deviations from the facts the benign majority establishes
_PLANTED_REFRESH = (
    "contract {name} {{\n"
    "    function pokeFor(address f) public {{\n"
    "        call oracle.refresh(f, {rate});\n    }}\n}}\n")
_PLANTED_SWEEP = (
    "contract {name} {{\n    address treasury;\n\n"
    "    function constructor() internal {{\n        treasury = {addr};\n    }}\n\n"
    "    function sweep() public {{\n"
    "        call vault.sweep(treasury);\n    }}\n}}\n")

# corpus fact thresholds: the CLI defaults (--min-samples, --untainted-frac,
# --guarded-frac), both bounds inclusive
MIN_SAMPLES = 10
UNTAINTED_FRACTION = 0.9
GUARDED_FRACTION = 0.9


def corpus_facts(arg_taint: dict, guarded: dict, votes: dict) -> tuple:
    """The facts the thresholds admit from constructed call-site counts.

    arg_taint: (signature, position) -> (tainted, untainted);
    guarded: signature -> (guarded callers, unguarded callers);
    votes: signature -> reentrancy votes.
    """
    sensitive = tuple(
        (sig, pos, t, u) for (sig, pos), (t, u) in sorted(arg_taint.items())
        if t + u >= MIN_SAMPLES and u / (t + u) >= UNTAINTED_FRACTION)
    usually_guarded = tuple(
        (sig, g, u) for sig, (g, u) in sorted(guarded.items())
        if g + u >= MIN_SAMPLES and g / (g + u) >= GUARDED_FRACTION)
    reentrancy = tuple(sorted((sig, n) for sig, n in votes.items() if n >= 1))
    return sensitive, usually_guarded, reentrancy


def _has_arg_fact(facts: tuple, signature: str, position: int) -> bool:
    return any(f[:2] == (signature, position) for f in facts[0])


def _has_guard_fact(facts: tuple, signature: str) -> bool:
    return any(f[0] == signature for f in facts[1])


SMALL_BENIGN = 270  # 45 contracts per template
SMALL_PLANTED = 2   # per planted kind
SWAP_BENIGN = 19


def write_corpus_small(directory: Path, seed: int,
                       benign: int = SMALL_BENIGN) -> Expected:
    """Benign templates, the swap corpus, the reentrancy chain and planted
    contracts; ``benign`` is rounded down to a multiple of the template
    count so that every template is equally frequent."""
    rng = _rng("corpus-small", seed)
    directory.mkdir(parents=True, exist_ok=True)
    per_template = benign // len(BENIGN_TEMPLATES)
    benign = per_template * len(BENIGN_TEMPLATES)
    addrs = rng.sample(range(0x1000, 0xFFFF),
                       benign + SWAP_BENIGN + SMALL_PLANTED)

    refresh = per_template + SMALL_PLANTED
    sweep = per_template + SMALL_PLANTED
    facts = corpus_facts(
        {("refresh", 0): (SMALL_PLANTED, per_template),
         ("refresh", 1): (0, refresh),
         ("swap", 0): (1, SWAP_BENIGN),
         ("swap", 1): (0, SWAP_BENIGN + 1),
         ("sweep", 0): (0, sweep),
         ("notify", 0): (1, 0),
         ("relay", 0): (0, 1)},
        {"refresh": (0, refresh), "swap": (0, SWAP_BENIGN + 1),
         "sweep": (per_template, SMALL_PLANTED), "ping": (0, 1),
         "notify": (0, 1), "relay": (0, 1)},
        # Hub.notify yields to its parameter (round 1); Wrapper.relay
        # forwards a parameter to notify (round 2)
        {"notify": 1, "relay": 1})
    # round 3 confirms round 2
    expected = Expected(facts=facts, fact_rounds=3)

    for i in range(benign):
        name = f"Benign{i:03d}"
        _write(directory, name, BENIGN_TEMPLATES[i % len(BENIGN_TEMPLATES)]
               .format(name=name, bound=rng.randint(100, 999),
                       rate=rng.randint(3, 9), addr=hex(addrs.pop())))
        expected.verdicts[name] = ()
    for i in range(SWAP_BENIGN):
        name = f"SwapUser{i:02d}"
        _write(directory, name,
               _SWAP_BENIGN.format(name=name, addr=hex(addrs.pop())))
        expected.verdicts[name] = ()
    _write(directory, "SwapTainted", _SWAP_TAINTED.format(name="SwapTainted"))
    expected.verdicts["SwapTainted"] = (
        (("doSwap", ANOMALY),) if _has_arg_fact(facts, "swap", 0) else ())
    for name, text in _REENTRANCY_CHAIN:
        _write(directory, name, text)
        expected.verdicts[name] = ()
    for i in range(SMALL_PLANTED):
        name = f"PlantedPoke{i}"
        _write(directory, name, _PLANTED_REFRESH.format(
            name=name, rate=rng.randint(3, 9)))
        expected.verdicts[name] = (
            (("pokeFor", ANOMALY),) if _has_arg_fact(facts, "refresh", 0)
            else ())
        name = f"PlantedSweep{i}"
        _write(directory, name, _PLANTED_SWEEP.format(
            name=name, addr=hex(addrs.pop())))
        expected.verdicts[name] = (
            (("sweep", ANOMALY),) if _has_guard_fact(facts, "sweep") else ())
    return expected


# ---------------------------------------------------------------------------
# corpus-gated: medium contracts with gates on address parameters
# ---------------------------------------------------------------------------

_GATED = (
    "contract {name} {{\n"
    "    address owner;\n    address admin;\n    mapping auth;\n"
    "    mapping bal;\n    uint fee;\n\n"
    "    function constructor() internal {{\n"
    "        owner = msg.sender;\n"
    "        admin = {admin};\n"
    "        auth[msg.sender] = 1;\n"
    "        fee = {fee};\n    }}\n\n"
    "    function setFee(uint f) public {{\n"
    "        require(msg.sender == owner || msg.sender == admin);\n"
    "        fee = f;\n    }}\n\n"
    "    function credit(address who, uint amount) public {{\n"
    "        require(auth[msg.sender] == 1);\n"
    "        bal[who] = amount + fee;\n    }}\n\n"
    "    function pair(address a, address b) public {{\n"
    "        if (b == a) {{ bal[a] = fee; }}\n    }}\n\n"
    "    function route(address a, address b) public {{\n"
    "        require(a == owner || a == admin);\n"
    "        call registry.record({recipient}, fee);\n    }}\n\n"
    "    function sweep() public {{\n"
    "{sweep_guard}"
    "        call vault.sweep(owner);\n    }}\n}}\n")

GATED_CONTRACTS = 20


def write_corpus_gated(directory: Path, seed: int,
                       count: int = GATED_CONTRACTS) -> Expected:
    """``count`` medium contracts. One in ten passes a caller-chosen
    address to ``record`` (``a`` may be the admin's address, which passes
    the gate, and ``b`` is then anything); another one in ten leaves
    ``sweep`` open to any caller."""
    rng = _rng("corpus-gated", seed)
    directory.mkdir(parents=True, exist_ok=True)
    order = list(range(count))
    rng.shuffle(order)
    planted = max(1, count // 10)
    tainted_route = set(order[:planted])
    open_sweep = set(order[planted:2 * planted])
    opened = len(open_sweep)
    facts = corpus_facts(
        {("record", 0): (planted, count - planted),
         ("record", 1): (0, count),
         ("sweep", 0): (0, count)},
        {"record": (0, count), "sweep": (count - opened, opened)},
        {})
    # round 2 confirms round 1, unless round 1 found nothing
    expected = Expected(facts=facts, fact_rounds=2 if any(facts) else 1)
    for i in range(count):
        name = f"Gated{i:02d}"
        verdict = []
        if i in tainted_route and _has_arg_fact(facts, "record", 0):
            verdict.append(("route", ANOMALY))
        if i in open_sweep and _has_guard_fact(facts, "sweep"):
            verdict.append(("sweep", ANOMALY))
        _write(directory, name, _GATED.format(
            name=name, admin=hex(rng.randint(0x100, 0xFFF)),
            fee=rng.randint(1, 30),
            recipient="b" if i in tainted_route else "owner",
            sweep_guard=("" if i in open_sweep
                         else "        require(auth[msg.sender] == 1);\n")))
        expected.verdicts[name] = tuple(sorted(verdict))
    return expected
