"""Tests for summary records, purity classification, and cache keys
(repro.specs.summary)."""

import gc
import hashlib
import pickle

from repro.gil.syntax import (
    ActionCall,
    Assignment,
    Call,
    Fail,
    IfGoto,
    ISym,
    Proc,
    Prog,
    Return,
    USym,
)
from repro.logic.expr import Lit, PVar, lst
from repro.specs.summary import (
    SUMMARY_FORMAT_VERSION,
    Summary,
    classify_pure,
    engine_salt,
    is_pure,
    proc_hash,
    pure_key,
    spec_arg,
    static_callee,
)


def prog_of(*procs):
    p = Prog()
    for proc in procs:
        p.add(proc)
    return p


def ret_proc(name, params=("a",), value=None):
    """A one-command procedure returning ``value`` (default: its arg)."""
    body = (Return(value if value is not None else PVar(params[0])),)
    return Proc(name, params, body)


class TestClassifyPure:
    def test_arithmetic_only_is_pure(self):
        prog = prog_of(
            Proc("f", ("a",), (Assignment("x", PVar("a") + Lit(1)), Return(PVar("x"))))
        )
        assert classify_pure(prog) == {"f": True}

    def test_fail_and_branches_stay_pure(self):
        prog = prog_of(
            Proc("f", ("a",), (
                IfGoto(PVar("a").lt(Lit(0)), 2),
                Return(PVar("a")),
                Fail(Lit("neg")),
            ))
        )
        assert classify_pure(prog)["f"] is True

    def test_memory_action_is_impure(self):
        prog = prog_of(
            Proc("f", ("a",), (
                ActionCall("r", "lookup", lst(PVar("a"), "p")),
                Return(PVar("r")),
            ))
        )
        assert classify_pure(prog)["f"] is False

    def test_fresh_symbols_are_impure(self):
        usym = prog_of(Proc("f", (), (USym("o", 0), Return(PVar("o")))))
        isym = prog_of(Proc("f", (), (ISym("x", 0), Return(PVar("x")))))
        assert classify_pure(usym)["f"] is False
        assert classify_pure(isym)["f"] is False

    def test_purity_is_transitive(self):
        prog = prog_of(
            ret_proc("leaf"),
            Proc("mid", ("a",), (
                Call("r", Lit("leaf"), (PVar("a"),)),
                Return(PVar("r")),
            )),
            Proc("dirty", ("a",), (
                USym("o", 0),
                Call("r", Lit("leaf"), (PVar("a"),)),
                Return(PVar("r")),
            )),
            Proc("taints", ("a",), (
                Call("r", Lit("dirty"), (PVar("a"),)),
                Return(PVar("r")),
            )),
        )
        verdicts = classify_pure(prog)
        assert verdicts["leaf"] and verdicts["mid"]
        assert not verdicts["dirty"] and not verdicts["taints"]

    def test_dynamic_callee_is_impure(self):
        prog = prog_of(
            ret_proc("leaf"),
            Proc("f", ("a",), (
                Assignment("n", Lit("leaf")),
                Call("r", PVar("n"), (PVar("a"),)),
                Return(PVar("r")),
            )),
        )
        assert classify_pure(prog)["f"] is False

    def test_recursion_is_impure(self):
        prog = prog_of(
            Proc("f", ("a",), (
                Call("r", Lit("f"), (PVar("a"),)),
                Return(PVar("r")),
            ))
        )
        assert classify_pure(prog)["f"] is False


def reference_proc_hash(prog, name, memo):
    """:func:`proc_hash` as first written: every visit pickles the body
    afresh, with no per-procedure memo.  Like the engine, pass the name
    as a call site holds it, ``Lit(name).value``."""

    def visit(pname, in_flight):
        known = memo.get(pname)
        if known is not None:
            return known
        if pname in in_flight:
            return "cycle:" + pname
        proc = prog.get(pname)
        if proc is None:
            return "missing:" + pname
        in_flight.add(pname)
        digest = hashlib.sha256(
            pickle.dumps((pname, proc.params, proc.body), protocol=4)
        )
        for cmd in proc.body:
            if isinstance(cmd, Call):
                callee = static_callee(cmd)
                if callee is not None:
                    digest.update(visit(callee, in_flight).encode())
        in_flight.discard(pname)
        memo[pname] = result = digest.hexdigest()
        return result

    return visit(name, set())


def transitive_callers(prog, target):
    """Every procedure whose static call tree reaches ``target``."""
    callers = {target}
    changed = True
    while changed:
        changed = False
        for name, proc in prog.procs.items():
            if name in callers:
                continue
            if any(
                isinstance(cmd, Call) and static_callee(cmd) in callers
                for cmd in proc.body
            ):
                callers.add(name)
                changed = True
    return callers - {target}


class TestLazyPurity:
    def test_agrees_with_classify_pure_on_table_programs(self, table_programs):
        seen = set()
        for label, _, prog, _ in table_programs:
            reference = classify_pure(prog)
            seen.update(reference.values())
            shared = {}
            # Reverse order first: verdicts memoised mid-walk must not
            # depend on which procedure the engine asked about first.
            for name in reversed(list(prog.procs)):
                assert is_pure(prog, name, shared) == reference[name], (label, name)
            for name in prog.procs:
                assert is_pure(prog, name, {}) == reference[name], (label, name)
        assert seen == {True, False}

    def test_only_reached_procedures_are_classified(self):
        prog = prog_of(
            ret_proc("leaf"),
            Proc("mid", ("a",), (
                Call("r", Lit("leaf"), (PVar("a"),)),
                Return(PVar("r")),
            )),
            Proc("other", (), (USym("o", 0), Return(PVar("o")))),
        )
        verdicts = {}
        assert is_pure(prog, "mid", verdicts)
        assert verdicts == {"leaf": True, "mid": True}

    def test_deciding_purity_hashes_no_body(self):
        from repro.specs import summary

        prog = prog_of(
            ret_proc("leaf"),
            Proc("mid", ("a",), (
                Call("r", Lit("leaf"), (PVar("a"),)),
                Return(PVar("r")),
            )),
            Proc("other", (), (USym("o", 0), Return(PVar("o")))),
        )
        verdicts = {}
        assert is_pure(prog, "mid", verdicts)
        assert not is_pure(prog, "other", verdicts)
        hashed = summary._BODY_DIGESTS._entries
        assert not any(id(proc) in hashed for proc in prog.procs.values())
        proc_hash(prog, "mid")
        assert {id(prog.procs[n]) for n in ("mid", "leaf")} <= set(hashed)
        assert id(prog.procs["other"]) not in hashed

    def test_mutual_recursion_is_impure_from_either_end(self):
        prog = prog_of(
            Proc("f", ("a",), (Call("r", Lit("g"), (PVar("a"),)), Return(PVar("r")))),
            Proc("g", ("a",), (Call("r", Lit("f"), (PVar("a"),)), Return(PVar("r")))),
            ret_proc("h"),
        )
        for first in ("f", "g"):
            verdicts = {}
            assert not is_pure(prog, first, verdicts)
            assert verdicts == {"f": False, "g": False}
            assert is_pure(prog, "h", verdicts)


class TestProcHash:
    def test_deterministic(self):
        prog = prog_of(ret_proc("f"))
        assert proc_hash(prog, "f") == proc_hash(prog, "f")

    def test_covers_own_body(self):
        a = prog_of(ret_proc("f", value=Lit(1)))
        b = prog_of(ret_proc("f", value=Lit(2)))
        assert proc_hash(a, "f") != proc_hash(b, "f")

    def test_covers_transitive_callees(self):
        def with_leaf(value):
            return prog_of(
                ret_proc("leaf", value=value),
                Proc("mid", ("a",), (
                    Call("r", Lit("leaf"), (PVar("a"),)),
                    Return(PVar("r")),
                )),
                Proc("top", ("a",), (
                    Call("r", Lit("mid"), (PVar("a"),)),
                    Return(PVar("r")),
                )),
            )

        a, b = with_leaf(Lit(1)), with_leaf(Lit(2))
        # Editing the leaf invalidates every caller up the chain...
        assert proc_hash(a, "top") != proc_hash(b, "top")
        assert proc_hash(a, "mid") != proc_hash(b, "mid")
        # ...and the leaf itself.
        assert proc_hash(a, "leaf") != proc_hash(b, "leaf")

    def test_unrelated_procedures_unaffected(self):
        a = prog_of(ret_proc("f", value=Lit(1)), ret_proc("g"))
        b = prog_of(ret_proc("f", value=Lit(2)), ret_proc("g"))
        assert proc_hash(a, "g") == proc_hash(b, "g")

    def test_recursive_hash_well_defined(self):
        prog = prog_of(
            Proc("f", ("a",), (
                Call("r", Lit("f"), (PVar("a"),)),
                Return(PVar("r")),
            ))
        )
        assert proc_hash(prog, "f") == proc_hash(prog, "f")

    def test_equals_reference_on_table_programs(self, table_programs):
        for label, _, prog, _ in table_programs:
            # One shared memo per program, as an engine keeps; twice, so
            # the second pass reads every body from the per-Proc memo.
            for _ in range(2):
                memo, ref_memo = {}, {}
                for name in prog.procs:
                    assert proc_hash(prog, name, memo) == reference_proc_hash(
                        prog, Lit(name).value, ref_memo
                    ), (label, name)
            for name in prog.procs:
                assert proc_hash(prog, name) == reference_proc_hash(
                    prog, Lit(name).value, {}
                ), (label, name)

    def test_replacing_a_procedure_rehashes_it_and_its_callers(
        self, table_programs
    ):
        label, _, prog, _ = next(
            p for p in table_programs if p[0] == "table2/list"
        )
        copy = pickle.loads(pickle.dumps(prog))
        before = {name: proc_hash(copy, name) for name in copy.procs}
        target = max(
            copy.procs, key=lambda name: len(transitive_callers(copy, name))
        )
        callers = transitive_callers(copy, target)
        assert callers, label
        old = copy.procs[target]
        copy.procs[target] = Proc(
            old.name, old.params, old.body + (Return(Lit("edited")),)
        )
        after = {name: proc_hash(copy, name) for name in copy.procs}
        changed = {name for name in copy.procs if before[name] != after[name]}
        assert changed == callers | {target}
        # Restoring the original body restores every hash.
        copy.procs[target] = old
        assert {name: proc_hash(copy, name) for name in copy.procs} == before

    def test_body_memo_dies_with_its_program(self):
        from repro.specs import summary

        prog = prog_of(ret_proc("f", value=Lit(41)))
        proc_hash(prog, "f")
        key = id(prog.procs["f"])
        memos = (summary._BODY_FACTS, summary._BODY_DIGESTS)
        assert all(key in memo._entries for memo in memos)
        del prog
        gc.collect()
        assert not any(key in memo._entries for memo in memos)

    def test_memo_is_per_program(self):
        a = prog_of(ret_proc("f", value=Lit(1)))
        b = prog_of(ret_proc("f", value=Lit(2)))
        memo_a, memo_b = {}, {}
        assert proc_hash(a, "f", memo_a) != proc_hash(b, "f", memo_b)
        # The memo returns the cached digest on re-query.
        assert proc_hash(a, "f", memo_a) == memo_a["f"]


class TestKeys:
    def test_pure_key_covers_salt(self):
        assert pure_key("abc", "salt1") != pure_key("abc", "salt2")
        assert pure_key("abc", "s") == pure_key("abc", "s")

    def test_pure_key_covers_proc_hash(self):
        assert pure_key("abc", "s") != pure_key("abd", "s")

    def test_keys_are_hex(self):
        key = pure_key("h", "s")
        assert len(key) == 64 and all(c in "0123456789abcdef" for c in key)


class TestEngineSalt:
    def test_salt_covers_budgets_and_policy(self):
        from repro.engine.config import EngineConfig
        from repro.state.symbolic import SymbolicStateModel
        from repro.targets.while_lang.memory import WhileSymbolicMemory

        sm = SymbolicStateModel(WhileSymbolicMemory())
        base = engine_salt(sm, EngineConfig())
        assert engine_salt(sm, EngineConfig()) == base
        assert engine_salt(sm, EngineConfig(summary_max_paths=7)) != base
        assert engine_salt(sm, EngineConfig(solver_step_budget=9)) != base
        relaxed = SymbolicStateModel(
            WhileSymbolicMemory(), unknown_policy="prune"
        )
        assert engine_salt(relaxed, EngineConfig(unknown_policy="prune")) != base

    def test_salt_covers_format_version(self, monkeypatch):
        # Records of another format live under other keys: an old
        # summary_dir entry misses instead of failing to load.
        from repro.engine.config import EngineConfig
        from repro.specs import summary
        from repro.state.symbolic import SymbolicStateModel
        from repro.targets.while_lang.memory import WhileSymbolicMemory

        sm = SymbolicStateModel(WhileSymbolicMemory())
        base = engine_salt(sm, EngineConfig())
        monkeypatch.setattr(
            summary, "SUMMARY_FORMAT_VERSION", SUMMARY_FORMAT_VERSION - 1
        )
        assert engine_salt(sm, EngineConfig()) != base


class TestUsable:
    def _summary(self, complete, version=SUMMARY_FORMAT_VERSION):
        return Summary(
            proc="f", params=("a",), paths=(),
            complete=complete, commands=3, format_version=version,
        )

    def test_complete_usable_everywhere(self):
        s = self._summary(complete=True)
        assert s.usable("verify") and s.usable("incorrectness")

    def test_incomplete_only_for_incorrectness(self):
        s = self._summary(complete=False)
        assert not s.usable("verify")
        assert s.usable("incorrectness")

    def test_foreign_format_version_unusable(self):
        s = self._summary(complete=True, version=SUMMARY_FORMAT_VERSION + 1)
        assert not s.usable("verify") and not s.usable("incorrectness")


class TestHelpers:
    def test_static_callee(self):
        assert static_callee(Call("r", Lit("f"), ())) == "f"
        assert static_callee(Call("r", PVar("x"), ())) is None

    def test_spec_arg_namespace(self):
        from repro.logic.expr import LVar

        assert spec_arg(0) == LVar("spec_arg_0")
        assert spec_arg(3) == LVar("spec_arg_3")
