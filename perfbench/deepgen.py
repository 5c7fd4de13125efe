"""Seeded generator of the ``deep-paths`` corpus.

Every test pushes ``k`` symbolic ints through one ordered structure of
the MiniC Collections library (a binary-heap priority queue, a BST
table, or the set built on it) and asserts properties that hold on
every path.  Half of the tests carry a planted fault: one assertion is
replaced by a variant that some path violates, so its verdict is
``bug`` with a concretely replayable counter-model.  The generator
knows every verdict it plants; that is the workload's oracle.

The seed picks the values stored beside the keys and the spare capacity
of each priority queue.  It never changes what decides the work
(structure, ``k``, the assertions, where a fault is planted, and the
order of the tests): moving the planted pqueue fault alone changes that
test's path count from 44 to 52 and its time by up to 40%, and earlier
tests warm process-wide caches for later ones, so the planted k=4
treetbl test took 1.33 s when it ran before its clean twin and 1.10 s
after it.  Either would make the timing depend on the seed.

The generator lives with the benchmark, not in ``repro.testing``, so a
change to the program's own fuzz generators never changes this corpus.
"""

from __future__ import annotations

import random
from typing import List, Tuple

#: (structure, symbolic elements) of each test; each shape appears once
#: clean and once with a planted fault.  ``k`` stays small: a treetbl
#: with 4 symbolic keys has 75 paths, with 5 keys it has 541.
SHAPES = (
    ("treetbl", 4),
    ("pqueue", 4),
    ("treeset", 3),
    ("treetbl", 3),
    ("pqueue", 3),
)

BUG = "bug"
CLEAN = "bounded-verified"


def _treetbl(name: str, k: int, planted: bool, rng: random.Random) -> str:
    keys = [f"k{i}" for i in range(k)]
    lines = [f"void {name}() {{", "  struct TreeTbl *t = treetbl_new();"]
    for key in keys:
        lines.append(f"  int {key} = symb_int();")
        lines.append(f"  treetbl_add(t, {key}, {rng.randrange(1, 1000)});")
    lines.append("  int out = 0;")
    for key in keys:
        lines.append(f"  assert(treetbl_contains_key(t, {key}));")
    # Equal keys overwrite, so the size is at most k, and exactly k only
    # when every key differs: the planted variant fails on a shared key.
    op = "==" if planted else "<="
    lines.append(f"  assert(treetbl_size(t) {op} {k});")
    lines.append("  assert(treetbl_min_key(t, &out));")
    for key in keys:
        lines.append(f"  assert(out <= {key});")
    lines += ["  treetbl_destroy(t);", "}"]
    return "\n".join(lines)


def _treeset(name: str, k: int, planted: bool, rng: random.Random) -> str:
    del rng  # nothing in a set test is free to vary
    elems = [f"e{i}" for i in range(k)]
    lines = [f"void {name}() {{", "  struct TreeSet *s = treeset_new();"]
    for elem in elems:
        lines.append(f"  int {elem} = symb_int();")
        lines.append(f"  treeset_add(s, {elem});")
    for elem in elems:
        lines.append(f"  assert(treeset_contains(s, {elem}));")
    op = "==" if planted else "<="
    lines.append(f"  assert(treeset_size(s) {op} {k});")
    lines += ["  treeset_destroy(s);", "}"]
    return "\n".join(lines)


def _pqueue(name: str, k: int, planted: bool, rng: random.Random) -> str:
    elems = [f"e{i}" for i in range(k)]
    capacity = k + rng.randrange(4)  # spare room never changes the paths
    lines = [f"void {name}() {{", f"  struct PQueue *pq = pqueue_new({capacity});"]
    for elem in elems:
        lines.append(f"  int {elem} = symb_int();")
        lines.append(f"  pqueue_push(pq, {elem});")
    lines += ["  int prev = 0;", "  int cur = 0;", "  assert(pqueue_pop(pq, &prev));"]
    # Pops come out in non-decreasing order; the planted variant demands
    # a strict increase between the last two, which equal elements violate.
    fault_at = k - 2 if planted else -1
    for i in range(k - 1):
        op = "<" if i == fault_at else "<="
        lines.append("  assert(pqueue_pop(pq, &cur));")
        lines.append(f"  assert(prev {op} cur);")
        lines.append("  prev = cur;")
    lines += ["  assert(pqueue_size(pq) == 0);", "  pqueue_destroy(pq);", "}"]
    return "\n".join(lines)


_WRITERS = {"treetbl": _treetbl, "treeset": _treeset, "pqueue": _pqueue}


def generate(seed: int) -> Tuple[str, List[Tuple[str, str]]]:
    """The corpus for ``seed``: (test source, [(entry, expected verdict)]).

    The source holds only the generated tests; compile it after the
    Collections library it calls into.
    """
    rng = random.Random(seed)
    bodies: List[str] = []
    tests: List[Tuple[str, str]] = []
    for structure, k in SHAPES:
        for planted in (False, True):
            name = f"test_{structure}_k{k}_{'planted' if planted else 'clean'}"
            bodies.append(_WRITERS[structure](name, k, planted, rng))
            tests.append((name, BUG if planted else CLEAN))
    return "\n\n".join(bodies), tests


if __name__ == "__main__":
    import sys

    source, expected = generate(int(sys.argv[1]) if len(sys.argv) > 1 else 0)
    print(source)
    for entry, verdict in expected:
        print(f"// {entry}: {verdict}")
