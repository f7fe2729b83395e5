"""A fixed allocation-heavy pure-Python task that imports nothing from
symvalic. Its wall time samples the machine's current speed for the kind
of work the analyzer does (small objects, dicts, hashing, sorting); the
benchmark scales its times by it. Prints the seconds the task took.

    python3 bench/reference.py
"""

import time

ITEMS = 40_000


def task() -> float:
    began = time.perf_counter()
    table: dict = {}
    for i in range(ITEMS):
        key = (i % 997, ("v", i % 13))
        table.setdefault(key, []).append(frozenset((i, i + 1)))
    sorted(table.items())
    return time.perf_counter() - began


if __name__ == "__main__":
    print(repr(task()))
