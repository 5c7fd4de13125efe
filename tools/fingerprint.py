#!/usr/bin/env python
"""Canonical differential-fuzz fingerprints for the memory models.

Runs the seeded differential fuzzer's program generator (the exact
generator the test suite uses — imported from
``tests.engine.test_fuzz_differential``) plus the fixed MiniJS/MiniC
corpus through the symbolic engine and writes a *canonical* JSON
fingerprint of everything the memory models determine:

* the multiset of finals (outcome kind + value repr, the same key the
  deterministic shard merge sorts by), and
* every non-timing run statistic — command counts, path tallies, solver
  queries by cache tier, stop reason, and the full incompleteness
  ledger.

Three arms per workload where applicable: sequential, parallel
(``workers=2``, exercising the pickle layer), and seeded fault
injection (worker kills + injected action errors, exercising recovery).

The committed baseline (``tests/fingerprints/baseline.json``) was
generated from the pre-combinator monolithic memory models; the memlib
refactor is mechanically byte-identical to it — ``make
fingerprint-check`` regenerates the fingerprint and compares bytes.
Anything that changes branch ordering, learned conditions, solver-call
sequences, or error values shows up as a diff.

The ``solver`` arm pins the solver itself on the Table 1/2/3 tests: per
test, the verdict and model (keys sorted, every value with its type) of
each solved prefix context in solve order, and the model-search node
count.  ``tests/fingerprints/solver.json`` was generated before the
theory pass became int-first, so a change to a verdict, a model value or
its type, or the search order shows up as a diff.

Usage::

    PYTHONPATH=src:. python tools/fingerprint.py --out FILE [--arms while,js,c]
    PYTHONPATH=src:. python tools/fingerprint.py --check FILE [--arms while,js,c]

Arms: ``while``, ``js``, ``c`` (the default set), ``heap``, ``rust`` and
``solver``.

``--check`` exits non-zero (listing the first differing lines) if the
regenerated fingerprint is not byte-identical to ``FILE``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from typing import Dict, List

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(REPO_ROOT, "src"), REPO_ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from repro.engine.config import EngineConfig
from repro.engine.explorer import Explorer
from repro.engine.parallel import ParallelExplorer
from repro.engine.results import ExecutionResult, final_sort_key
from repro.state.symbolic import SymbolicStateModel
from repro.targets.c_like import MiniCLanguage
from repro.targets.js_like import MiniJSLanguage
from repro.testing.faults import FaultPlan
from repro.testing.harness import SymbolicTester
from repro.testing.io import atomic_write_bytes

#: While-fuzzer seed slices per arm.  Kept moderate so ``make
#: fingerprint-check`` stays a tens-of-seconds gate, but wide enough
#: that every While action (lookup/mutate/dispose), error shape, and
#: branching pattern the generator can produce is pinned.
WHILE_SEQ_SEEDS = tuple(range(20))
WHILE_PAR_SEEDS = tuple(range(0, 20, 4))
WHILE_FAULT_SEEDS = tuple(range(1, 20, 6))

#: fault shapes whose recovery is exact (mirrors the fuzz suite: solver
#: timeouts are excluded because an assumed-SAT branch may add finals)
FAULT_KINDS = ("kill-raise", "kill-exit", "action")

CONFIG = EngineConfig(max_paths=2_000, max_total_steps=50_000)

#: Fixed MiniJS corpus: dynamic property branching, object branching,
#: null errors, bounded loops — the shapes §4.1's model must pin.
JS_CORPUS = {
    "dynamic_props": """
        function main() {
          var o = { a: 1, b: 2 };
          var k = symb_string();
          var v = o[k];
          if (v === undefined) { return 0; }
          return v;
        }""",
    "branching_objects": """
        function main() {
          var flag = symb_bool();
          var o = flag ? { kind: "yes", v: 1 } : { kind: "no", v: 2 };
          return o.v;
        }""",
    "null_error": """
        function main() {
          var b = symb_bool();
          var o = b ? { v: 1 } : null;
          return o.v;
        }""",
    "delete_and_has": """
        function main() {
          var o = { a: 1, b: 2 };
          var k = symb_string();
          delete o[k];
          if (has_prop(o, "a")) { return 1; }
          return 0;
        }""",
    "metadata_dispose": """
        function main() {
          var o = { v: 1 };
          var b = symb_bool();
          if (b) { dispose(o); }
          return o.v;
        }""",
}

#: Fixed MiniC corpus: loads/stores through chunks, overflow and
#: use-after-free branches, memset/memcpy, pointer comparison UB.
C_CORPUS = {
    "heap_struct": """
        struct P { int x; int y; };
        int main() {
          struct P *p = (struct P *) malloc(sizeof(struct P));
          p->x = symb_int();
          assume(0 <= p->x && p->x <= 2);
          p->y = p->x * 2;
          int r = p->y;
          free(p);
          return r;
        }""",
    "overflow_paths": """
        int main() {
          int *a = (int *) malloc(8);
          int i = symb_int();
          assume(0 <= i && i <= 2);
          a[i] = 1;
          int v = a[i];
          free(a);
          return v;
        }""",
    "conditional_free": """
        int main() {
          int *p = (int *) malloc(4);
          *p = 7;
          int b = symb_bool();
          if (b == 1) { free(p); }
          int v = *p;
          return v;
        }""",
    "memset_bytes": """
        int main() {
          char *b = (char *) malloc(4);
          memset(b, symb_int(), 4);
          assume(0 <= b[0] && b[0] <= 255);
          int v = b[2];
          free(b);
          return v;
        }""",
    "cmp_ptr_ub": """
        int main() {
          int *p = (int *) malloc(8);
          int *q = (int *) malloc(8);
          int b = symb_bool();
          if (b == 1) { free(q); }
          if (p < q) { return 1; }
          return 0;
        }""",
}


#: Fixed MiniRust corpus: owner-table branching — conditional moves,
#: drops and borrows, generation bumps, symbolic index overflow — the
#: shapes the ownership discipline must pin.
RUST_CORPUS = {
    "symbolic_index": """
        fn main() -> i64 {
          let a = [10, 20, 30];
          let i = symb_int();
          assume(0 <= i && i <= 3);
          let v = a[i];
          drop(a);
          return v;
        }""",
    "conditional_drop": """
        fn main() -> i64 {
          let b = Box::new(7);
          let flag = symb_bool();
          if flag == 1 { drop(b); }
          let v = *b;
          return v;
        }""",
    "conditional_move": """
        fn take(b: Box) -> i64 {
          return b[0];
        }
        fn main() -> i64 {
          let b = Box::new(5);
          let flag = symb_bool();
          let mut r = 0;
          if flag == 1 { r = take(b); }
          let v = *b;
          return v + r;
        }""",
    "borrow_discipline": """
        fn main() -> i64 {
          let mut a = [0, 0];
          let flag = symb_bool();
          if flag == 1 {
            let m = &mut a;
            m[0] = 1;
            drop(m);
          }
          let r = &a;
          let v = r[0];
          drop(r);
          drop(a);
          return v;
        }""",
    "builder_loop": """
        fn bump(b: Box, by: i64) -> Box {
          b[0] = b[0] + by;
          return b;
        }
        fn main() -> i64 {
          let mut b = Box::new(0);
          let n = symb_int();
          assume(0 <= n && n <= 2);
          let mut i = 0;
          while i < n { b = bump(b, i); i = i + 1; }
          let v = *b;
          drop(b);
          return v;
        }""",
}


def _incompleteness_key(inc) -> List[int]:
    return [
        inc.solver_timeouts,
        inc.unknown_pruned,
        inc.unknown_assumed,
        inc.shards_retried,
        inc.shards_lost,
        inc.frontier_lost,
    ]


def _result_key(result: ExecutionResult) -> Dict:
    """Everything deterministic a run produces: finals + counters."""
    stats = result.stats
    return {
        "finals": [list(final_sort_key(f)) for f in
                   sorted(result.finals, key=final_sort_key)],
        "stats": {
            "commands_executed": stats.commands_executed,
            "paths_finished": stats.paths_finished,
            "paths_vanished": stats.paths_vanished,
            "paths_dropped": stats.paths_dropped,
            "solver_queries": stats.solver_queries,
            "solver_cache_hits": stats.solver_cache_hits,
            "solver_prefix_hits": stats.solver_prefix_hits,
            "solver_model_reuse": stats.solver_model_reuse,
            "stop_reason": stats.stop_reason,
            "incompleteness": _incompleteness_key(stats.incompleteness),
        },
    }


def _sequential(prog, model) -> ExecutionResult:
    return Explorer(prog, model, CONFIG).run("main")


def _parallel(prog, model, config=CONFIG) -> ExecutionResult:
    return ParallelExplorer(
        prog, model, config, workers=2, seed_factor=1
    ).run("main")


def _faulted(prog, model, seed: int) -> ExecutionResult:
    plan = FaultPlan.random(seed, workers=2, max_step=12, kinds=FAULT_KINDS)
    config = dataclasses.replace(
        CONFIG, fault_plan=plan, shard_retry_backoff=0.0
    )
    return _parallel(prog, model, config)


def _while_like_section(language, generate, seq, par, faults) -> Dict:
    """Fingerprint a fuzz-generator-driven language across all arms."""
    section: Dict[str, Dict] = {"sequential": {}, "parallel": {}, "faulted": {}}
    for seed in seq:
        prog = generate(seed)
        section["sequential"][str(seed)] = _result_key(
            _sequential(prog, _model(language))
        )
    for seed in par:
        prog = generate(seed)
        section["parallel"][str(seed)] = _result_key(
            _parallel(prog, _model(language))
        )
    for seed in faults:
        prog = generate(seed)
        section["faulted"][str(seed)] = _result_key(
            _faulted(prog, _model(language), seed)
        )
    return section


def _model(language) -> SymbolicStateModel:
    return SymbolicStateModel(language.symbolic_memory())


def _corpus_section(language, corpus: Dict[str, str], fault_names) -> Dict:
    section: Dict[str, Dict] = {"sequential": {}, "parallel": {}, "faulted": {}}
    for name in sorted(corpus):
        prog = language.compile(corpus[name])
        section["sequential"][name] = _result_key(
            _sequential(prog, _model(language))
        )
        section["parallel"][name] = _result_key(
            _parallel(prog, _model(language))
        )
        if name in fault_names:
            section["faulted"][name] = _result_key(
                _faulted(prog, _model(language), seed=len(name))
            )
    return section


def while_arm() -> Dict:
    """The While memory, driven by the seeded differential fuzzer."""
    from repro.targets.while_lang import WhileLanguage
    from tests.engine.test_fuzz_differential import generate_program

    return _while_like_section(
        WhileLanguage(), generate_program,
        WHILE_SEQ_SEEDS, WHILE_PAR_SEEDS, WHILE_FAULT_SEEDS,
    )


def js_arm() -> Dict:
    """The MiniJS memory over the fixed corpus."""
    return _corpus_section(
        MiniJSLanguage(), JS_CORPUS, fault_names={"dynamic_props", "null_error"}
    )


def c_arm() -> Dict:
    """The MiniC memory over the fixed corpus."""
    return _corpus_section(
        MiniCLanguage(), C_CORPUS, fault_names={"overflow_paths", "conditional_free"}
    )


def heap_arm() -> Dict:
    """The combinator-built freeable While-heap (the fourth memory),
    driven by the same seeded fuzzer programs as the While arm."""
    from repro.targets.while_lang.heap import WhileHeapLanguage
    from tests.engine.test_fuzz_differential import generate_program

    return _while_like_section(
        WhileHeapLanguage(), generate_program,
        WHILE_SEQ_SEEDS, WHILE_PAR_SEEDS, WHILE_FAULT_SEEDS,
    )


def rust_arm() -> Dict:
    """The MiniRust owner-table × heap memory over the fixed corpus."""
    from repro.targets.rust_like import MiniRustLanguage

    return _corpus_section(
        MiniRustLanguage(),
        RUST_CORPUS,
        fault_names={"symbolic_index", "conditional_drop"},
    )


class _KeepSolver(SymbolicTester):
    """A tester that keeps the solver of the test it ran last."""

    def make_solver(self):
        self.solver = super().make_solver()
        return self.solver


def _context_key(ctx) -> str:
    """A solved prefix context: its verdict, then its model, keys sorted
    and every value with its type."""
    if ctx.model is None:
        return ctx.result.name
    return " ".join(
        [ctx.result.name]
        + [f"{k}={type(v).__name__}:{v!r}" for k, v in sorted(ctx.model.items())]
    )


def solver_arm() -> Dict:
    """Every Table 1/2/3 test's solved prefix contexts, in solve order,
    and its model-search node count (default engine configuration)."""
    from repro.targets.c_like.collections import suites as c_suites
    from repro.targets.js_like.buckets import suites as js_suites
    from repro.targets.rust_like import MiniRustLanguage
    from repro.targets.rust_like.collections import suites as rust_suites

    section: Dict[str, Dict] = {}
    for table, suites, language in (
        ("table1", js_suites, MiniJSLanguage()),
        ("table2", c_suites, MiniCLanguage()),
        ("table3", rust_suites, MiniRustLanguage()),
    ):
        tester = _KeepSolver(language, replay=False)
        for suite in suites.suite_names():
            source, tests = suites.suite(suite)
            prog = language.compile(source)
            for test in tests:
                tester.run_test(prog, test)
                solver = tester.solver
                section[f"{table}/{suite}/{test}"] = {
                    "contexts": [
                        _context_key(ctx) for ctx in solver._contexts.values()
                    ],
                    "search_nodes": solver.stats.search_nodes,
                }
    return section


ARMS = {
    "while": while_arm, "js": js_arm, "c": c_arm, "heap": heap_arm,
    "rust": rust_arm, "solver": solver_arm,
}


def fingerprint(arms) -> bytes:
    """The canonical fingerprint bytes for the requested arms."""
    payload = {"arms": {name: ARMS[name]() for name in arms}}
    text = json.dumps(payload, indent=1, sort_keys=True)
    return (text + "\n").encode("utf-8")


def main(argv: List[str]) -> int:
    out = check = None
    arms = ["while", "js", "c"]
    it = iter(argv)
    for arg in it:
        if arg == "--out":
            out = next(it)
        elif arg == "--check":
            check = next(it)
        elif arg == "--arms":
            arms = [a for a in next(it).split(",") if a]
        else:
            print(f"fingerprint: unknown argument {arg!r}", file=sys.stderr)
            return 2
    unknown = [a for a in arms if a not in ARMS]
    if unknown or not (out or check):
        print(
            f"usage: fingerprint.py (--out FILE | --check FILE) "
            f"[--arms {','.join(ARMS)}]",
            file=sys.stderr,
        )
        return 2
    data = fingerprint(arms)
    if out:
        atomic_write_bytes(out, data)
        print(f"fingerprint: wrote {out} ({len(data)} bytes, arms={arms})")
        return 0
    with open(check, "rb") as fh:
        expected = fh.read()
    if data == expected:
        print(f"fingerprint: ok — byte-identical to {check} (arms={arms})")
        return 0
    got_lines = data.decode("utf-8").splitlines()
    want_lines = expected.decode("utf-8").splitlines()
    shown = 0
    for i in range(max(len(got_lines), len(want_lines))):
        g = got_lines[i] if i < len(got_lines) else "<eof>"
        w = want_lines[i] if i < len(want_lines) else "<eof>"
        if g != w:
            print(f"line {i + 1}:\n  baseline: {w}\n  current:  {g}")
            shown += 1
            if shown >= 10:
                break
    print(f"fingerprint: MISMATCH against {check} (arms={arms})")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
