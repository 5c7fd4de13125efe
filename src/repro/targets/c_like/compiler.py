"""The MiniC-to-GIL compiler (paper §4.2).

Mirrors the paper's C#minor-to-GIL compiler: control flow compiles
trivially to conditional gotos and memory management is restated in terms
of the C memory-model actions (``alloc``, ``free``, ``load``, ``store``,
``memcpy``, ``memset``, ``cmp_ptr``, ``bounds``).  The compiler is typed:
it tracks the C type of every expression in order to pick memory chunks,
scale pointer arithmetic by ``sizeof``, and compute struct field offsets.

Conventions:

* pointers are GIL two-element lists ``[block, offset]``; ``NULL`` is the
  integer 0;
* ``malloc``/``calloc`` draw the fresh block from Gillian's built-in
  allocator (``uSym``) and register it with the ``alloc`` action — the
  paper's stated design (allocation is not a memory action, §2.2);
* all pointer comparisons go through ``cmp_ptr``, which reports the
  undefined behaviours of §4.2 (relational comparison across blocks,
  any comparison of freed pointers);
* string literals allocate a char block, NUL-terminated, at their
  occurrence; characters are their integer codes;
* boolean results (comparisons, ``&&``, ``!``) are tracked as an internal
  boolean type and materialised to C ints 0/1 only when stored or passed.

Like the paper's Gillian-C: no symbolic-size allocation, no address-of on
scalar locals (locals are GIL variables), mathematical integer arithmetic.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.frontend.emitter import (
    ARITHMETIC,
    COMPARISONS,
    CompileError,
    Emitter,
    arguments,
)
from repro.gil.syntax import (
    ActionCall,
    Assignment,
    Call,
    Goto,
    Proc,
    Prog,
    Return,
    USym,
    allocate_sites,
)
from repro.gil.values import GilType, Symbol
from repro.logic.expr import (
    BinOp,
    BinOpExpr,
    EList,
    Expr,
    Lit,
    PVar,
    UnOp,
    UnOpExpr,
    lst,
)
from repro.targets.c_like import ast
from repro.targets.c_like.ctypes import (
    CHAR,
    INT,
    VOID,
    ArrayType,
    CharType,
    CType,
    IntType,
    PointerType,
    StructType,
    TypeTable,
    is_pointer,
)

class BoolType(CType):
    """Internal marker: a GIL boolean (comparison / logical result)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<bool>"


BOOL = BoolType()

#: The value of an uninitialised scalar local (reading it is C UB; any
#: arithmetic use fails evaluation, surfacing as an error outcome).
UNINIT = Symbol("undef_c")

#: ``symb_*`` type name -> :meth:`Emitter.symbolic`'s assumptions
_SYMB = {
    None: (),
    "int": (GilType.NUMBER, True),
    "char": (GilType.NUMBER, True, (0, 255)),
    "bool": (GilType.NUMBER, True, (0, 1)),
}

#: pointer comparison operator -> its ``cmp_ptr`` operation name
_CMP_PTR = {"==": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge"}


def compile_source(source: str) -> Prog:
    from repro.targets.c_like.parser import parse_program

    return compile_program(parse_program(source))


def compile_program(program: ast.Program) -> Prog:
    types = TypeTable()
    for struct in program.structs:
        types.define_struct(struct.name, list(struct.fields))
    sigs: Dict[str, Tuple[CType, Tuple[CType, ...]]] = {}
    for func in program.functions:
        sigs[func.name] = (func.ret_type, tuple(p.type for p in func.params))
    prog = Prog()
    for func in program.functions:
        compiler = _FuncCompiler(types, sigs)
        prog.add(compiler.compile(func))
    return allocate_sites(prog)


def _collect_addressed(func: ast.FuncDef) -> set:
    """Names of locals whose address is taken (``&x``)."""
    found: set = set()

    def visit(node) -> None:
        if isinstance(node, ast.Unary) and node.op == "&" and isinstance(
            node.operand, ast.Var
        ):
            found.add(node.operand.name)
        for attr in ("operand", "left", "right", "obj", "base", "index",
                     "cond", "expr", "init", "value", "target", "step"):
            child = getattr(node, attr, None)
            if isinstance(child, ast.Node):
                visit(child)
        for attr in ("args", "then_body", "else_body", "body"):
            for child in getattr(node, attr, ()) or ():
                if isinstance(child, ast.Node):
                    visit(child)

    for stmt in func.body:
        visit(stmt)
    return found


def _ptr(block: Expr, offset: Expr) -> Expr:
    return EList((block, offset))


def _ptr_block(p: Expr) -> Expr:
    return BinOpExpr(BinOp.LNTH, p, Lit(0))


def _ptr_offset(p: Expr) -> Expr:
    return BinOpExpr(BinOp.LNTH, p, Lit(1))


def _ptr_add(p: Expr, delta: Expr) -> Expr:
    return _ptr(_ptr_block(p), BinOpExpr(BinOp.ADD, _ptr_offset(p), delta))


class _FuncCompiler:
    def __init__(self, types: TypeTable, sigs) -> None:
        self.types = types
        self.sigs = sigs
        self.em = Emitter()
        self.locals: Dict[str, CType] = {}
        #: locals whose address is taken live in memory: name → slot
        #: pointer variable (CompCert's stack allocation of addressed
        #: locals).
        self.slots: Dict[str, str] = {}
        self.addressed: set = set()
        self.ret_type: CType = VOID

    def compile(self, func: ast.FuncDef) -> Proc:
        self.locals = {p.name: p.type for p in func.params}
        self.ret_type = func.ret_type
        self.addressed = _collect_addressed(func)
        for param in func.params:
            if param.name in self.addressed:
                self._make_slot(param.name, param.type, init=PVar(param.name))
        self.stmts(func.body)
        self.em.emit(Return(Lit(0)))
        return Proc(func.name, tuple(p.name for p in func.params), self.em.finish())

    def _make_slot(self, name: str, t: CType, init: Optional[Expr]) -> None:
        """Give an addressed local a one-element memory block."""
        em = self.em
        block = em.fresh_temp("slotb")
        em.emit(USym(block, 0))
        slot = em.fresh_temp("slot")
        em.emit(ActionCall(slot, "alloc", lst(PVar(block), self.types.size_of(t))))
        if init is not None:
            chunk = self.types.chunk_of(t)
            em.emit(ActionCall(em.fresh_temp(), "store", lst(Lit(chunk), PVar(slot), init)))
        self.slots[name] = slot

    # -- statements ---------------------------------------------------------

    def stmt(self, stmt: ast.Statement) -> None:
        em = self.em
        if isinstance(stmt, ast.Decl):
            self.locals[stmt.name] = stmt.type
            if stmt.name in self.addressed:
                init = None
                if stmt.init is not None:
                    value, vtype = self.expr(stmt.init)
                    init = self.rvalue(value, vtype)
                self._make_slot(stmt.name, stmt.type, init)
                return
            if stmt.init is not None:
                value, vtype = self.expr(stmt.init)
                em.emit(Assignment(stmt.name, self.rvalue(value, vtype)))
            else:
                em.emit(Assignment(stmt.name, Lit(UNINIT)))
            return
        if isinstance(stmt, ast.ArrayDecl):
            size = self.types.size_of(stmt.element_type) * stmt.length
            block = em.fresh_temp("stk")
            em.emit(USym(block, 0))
            target = em.fresh_temp("arr")
            em.emit(ActionCall(target, "alloc", lst(PVar(block), size)))
            self.locals[stmt.name] = PointerType(stmt.element_type)
            em.emit(Assignment(stmt.name, PVar(target)))
            return
        if isinstance(stmt, ast.Assign):
            self._assign(stmt.target, stmt.value)
            return
        if isinstance(stmt, ast.ExprStmt):
            self.expr(stmt.expr)
            return
        if isinstance(stmt, ast.IfStmt):
            em.if_(
                self.condition(stmt.cond),
                lambda: self.stmts(stmt.then_body),
                lambda: self.stmts(stmt.else_body),
            )
            return
        if isinstance(stmt, ast.WhileStmt):
            em.loop(lambda: self.condition(stmt.cond), lambda: self.stmts(stmt.body))
            return
        if isinstance(stmt, ast.ForStmt):
            if stmt.init is not None:
                self.stmt(stmt.init)
            step = () if stmt.step is None else (stmt.step,)
            em.loop(
                None if stmt.cond is None else lambda: self.condition(stmt.cond),
                lambda: self.stmts(stmt.body),
                lambda: self.stmts(step),
            )
            return
        if isinstance(stmt, ast.ReturnStmt):
            if stmt.expr is None:
                em.emit(Return(Lit(0)))
            else:
                value, vtype = self.expr(stmt.expr)
                em.emit(Return(self.rvalue(value, vtype)))
            return
        if isinstance(stmt, ast.BreakStmt):
            em.emit(Goto(em.loop_exit("break")))
            return
        if isinstance(stmt, ast.ContinueStmt):
            em.emit(Goto(em.loop_exit("continue")))
            return
        if isinstance(stmt, ast.AssumeStmt):
            em.assume(self.condition(stmt.expr))
            return
        if isinstance(stmt, ast.AssertStmt):
            em.assert_(self.condition(stmt.expr), repr(stmt.expr))
            return
        raise CompileError(f"unknown statement {stmt!r}")

    def stmts(self, body) -> None:
        for stmt in body:
            self.stmt(stmt)

    def _assign(self, target: ast.Expression, value_ast: ast.Expression) -> None:
        em = self.em
        if isinstance(target, ast.Var):
            if target.name not in self.locals:
                raise CompileError(f"assignment to undeclared {target.name!r}")
            value, vtype = self.expr(value_ast)
            if target.name in self.slots:
                chunk = self.types.chunk_of(self.locals[target.name])
                em.emit(
                    ActionCall(
                        em.fresh_temp(),
                        "store",
                        lst(Lit(chunk), PVar(self.slots[target.name]),
                            self.rvalue(value, vtype)),
                    )
                )
                return
            em.emit(Assignment(target.name, self.rvalue(value, vtype)))
            return
        pointer, target_type = self.lvalue(target)
        value, vtype = self.expr(value_ast)
        chunk = self.types.chunk_of(target_type)
        em.emit(
            ActionCall(
                em.fresh_temp(),
                "store",
                lst(Lit(chunk), pointer, self.rvalue(value, vtype)),
            )
        )

    # -- lvalues -------------------------------------------------------------

    def lvalue(self, e: ast.Expression) -> Tuple[Expr, CType]:
        """Compile to (pointer expression, pointed-to type)."""
        if isinstance(e, ast.Var):
            if e.name in self.slots:
                return PVar(self.slots[e.name]), self.locals[e.name]
            raise CompileError(
                f"cannot take the address of register local {e.name!r}"
            )
        if isinstance(e, ast.Unary) and e.op == "*":
            pointer, ptype = self.expr(e.operand)
            if not isinstance(ptype, PointerType):
                raise CompileError(f"dereference of non-pointer {ptype!r}")
            return pointer, ptype.pointee
        if isinstance(e, ast.Member):
            if e.arrow:
                base, btype = self.expr(e.obj)
                if not isinstance(btype, PointerType) or not isinstance(
                    btype.pointee, StructType
                ):
                    raise CompileError(f"-> on non-struct-pointer {btype!r}")
                struct = btype.pointee
            else:
                base, struct = self.lvalue(e.obj)
                if not isinstance(struct, StructType):
                    raise CompileError(f". on non-struct lvalue {struct!r}")
            layout = self.types.layout(struct)
            if e.field not in layout.fields:
                raise CompileError(f"struct {struct.name} has no field {e.field!r}")
            offset, ftype = layout.fields[e.field]
            return _ptr_add(base, Lit(offset)), ftype
        if isinstance(e, ast.Index):
            base, btype = self.expr(e.base)
            if not isinstance(btype, PointerType):
                raise CompileError(f"index of non-pointer {btype!r}")
            index, itype = self.expr(e.index)
            scale = self.types.size_of(btype.pointee)
            delta = BinOpExpr(BinOp.MUL, self.rvalue(index, itype), Lit(scale))
            return _ptr_add(base, delta), btype.pointee
        raise CompileError(f"not an lvalue: {e!r}")

    # -- expressions ------------------------------------------------------------

    def expr(self, e: ast.Expression) -> Tuple[Expr, CType]:
        em = self.em
        if isinstance(e, ast.IntLit):
            return Lit(e.value), INT
        if isinstance(e, ast.CharLit):
            return Lit(ord(e.value)), CHAR
        if isinstance(e, ast.NullLit):
            return Lit(0), PointerType(VOID)
        if isinstance(e, ast.StrLit):
            return self._string_literal(e.value), PointerType(CHAR)
        if isinstance(e, ast.Var):
            if e.name not in self.locals:
                raise CompileError(f"unknown identifier {e.name!r}")
            if e.name in self.slots:
                return self._load_or_decay(
                    PVar(self.slots[e.name]), self.locals[e.name]
                )
            return PVar(e.name), self.locals[e.name]
        if isinstance(e, ast.SizeofExpr):
            return Lit(self.types.size_of(e.type)), INT
        if isinstance(e, ast.Cast):
            value, vtype = self.expr(e.operand)
            return self.rvalue(value, vtype), e.type
        if isinstance(e, ast.SymbolicExpr):
            symbol = em.symbolic(em.fresh_temp("symb"), *_SYMB[e.type_name])
            return symbol, INT if e.type_name != "char" else CHAR
        if isinstance(e, ast.Unary):
            return self._unary(e)
        if isinstance(e, ast.Binary):
            return self._binary(e)
        if isinstance(e, (ast.Member, ast.Index)):
            pointer, target_type = self.lvalue(e)
            return self._load_or_decay(pointer, target_type)
        if isinstance(e, ast.CallExpr):
            return self._call(e)
        raise CompileError(f"unknown expression {e!r}")

    def _load_or_decay(self, pointer: Expr, t: CType) -> Tuple[Expr, CType]:
        """Load a scalar; arrays and structs decay to their address."""
        if isinstance(t, ArrayType):
            return pointer, PointerType(t.element)
        if isinstance(t, StructType):
            return pointer, PointerType(t)
        target = self.em.fresh_temp("ld")
        chunk = self.types.chunk_of(t)
        self.em.emit(ActionCall(target, "load", lst(Lit(chunk), pointer)))
        return PVar(target), t

    def _string_literal(self, text: str) -> Expr:
        em = self.em
        block = em.fresh_temp("strb")
        em.emit(USym(block, 0))
        pointer = em.fresh_temp("str")
        em.emit(ActionCall(pointer, "alloc", lst(PVar(block), len(text) + 1)))
        chunk = self.types.chunk_of(CHAR)
        for i, ch in enumerate(text + "\0"):
            em.emit(
                ActionCall(
                    em.fresh_temp(),
                    "store",
                    lst(Lit(chunk), _ptr_add(PVar(pointer), Lit(i)), ord(ch)),
                )
            )
        return PVar(pointer)

    def _unary(self, e: ast.Unary) -> Tuple[Expr, CType]:
        if e.op == "-":
            value, vtype = self.expr(e.operand)
            return UnOpExpr(UnOp.NEG, self.rvalue(value, vtype)), INT
        if e.op == "!":
            return UnOpExpr(UnOp.NOT, self.condition(e.operand)), BOOL
        if e.op == "*":
            pointer, ptype = self.expr(e.operand)
            if not isinstance(ptype, PointerType):
                raise CompileError(f"dereference of non-pointer {ptype!r}")
            return self._load_or_decay(pointer, ptype.pointee)
        if e.op == "&":
            pointer, target_type = self.lvalue(e.operand)
            return pointer, PointerType(target_type)
        raise CompileError(f"unknown unary operator {e.op!r}")

    def _binary(self, e: ast.Binary) -> Tuple[Expr, CType]:
        if e.op in ("&&", "||"):
            short_circuit = self.em.short_circuit(
                e.op, lambda: self.condition(e.left), lambda: self.condition(e.right)
            )
            return short_circuit, BOOL

        left, ltype = self.expr(e.left)
        right, rtype = self.expr(e.right)
        if e.op in COMPARISONS:
            if is_pointer(ltype) or is_pointer(rtype):
                return self._cmp_ptr(_CMP_PTR[e.op], left, right), BOOL
            lv, rv = self.rvalue(left, ltype), self.rvalue(right, rtype)
            return COMPARISONS[e.op](lv, rv), BOOL

        # Pointer arithmetic: scale by sizeof(pointee).
        if isinstance(ltype, PointerType) and e.op in ("+", "-"):
            if isinstance(rtype, PointerType):
                if e.op != "-":
                    raise CompileError("pointer + pointer")
                scale = self.types.size_of(ltype.pointee)
                diff = BinOpExpr(
                    BinOp.SUB, _ptr_offset(left), _ptr_offset(right)
                )
                return UnOpExpr(
                    UnOp.FLOOR, BinOpExpr(BinOp.DIV, diff, Lit(scale))
                ), INT
            scale = self.types.size_of(ltype.pointee)
            delta = BinOpExpr(BinOp.MUL, self.rvalue(right, rtype), Lit(scale))
            if e.op == "-":
                delta = UnOpExpr(UnOp.NEG, delta)
            return _ptr_add(left, delta), ltype

        if e.op in ARITHMETIC:
            result = BinOpExpr(
                ARITHMETIC[e.op], self.rvalue(left, ltype), self.rvalue(right, rtype)
            )
            if e.op == "/":
                # C integer division; floor semantics (deviates from C's
                # truncation toward zero for negative operands).
                result = UnOpExpr(UnOp.FLOOR, result)
            return result, INT
        raise CompileError(f"unknown binary operator {e.op!r}")

    def _cmp_ptr(self, op: str, left: Expr, right: Expr) -> Expr:
        target = self.em.fresh_temp("cmp")
        self.em.emit(ActionCall(target, "cmp_ptr", lst(op, left, right)))
        return PVar(target)

    def condition(self, e: ast.Expression) -> Expr:
        """Compile an expression used as a C truth value into a GIL boolean."""
        value, vtype = self.expr(e)
        if isinstance(vtype, BoolType):
            return value
        if isinstance(vtype, (IntType, CharType)):
            return value.neq(Lit(0))
        if is_pointer(vtype):
            return self._cmp_ptr("ne", value, Lit(0))
        raise CompileError(f"type {vtype!r} is not a condition")

    def rvalue(self, value: Expr, vtype: CType) -> Expr:
        """Materialise internal booleans into C ints 0/1."""
        if not isinstance(vtype, BoolType):
            return value
        return self.em.choose("b2i", lambda: value, lambda: Lit(1), lambda: Lit(0))

    # -- calls ---------------------------------------------------------------

    def _call(self, e: ast.CallExpr) -> Tuple[Expr, CType]:
        em = self.em
        name = e.name
        if name == "malloc":
            (size_ast,) = arguments(name, e.args, 1)
            size, stype = self.expr(size_ast)
            block = em.fresh_temp("blk")
            em.emit(USym(block, 0))
            target = em.fresh_temp("ptr")
            em.emit(
                ActionCall(target, "alloc", lst(PVar(block), self.rvalue(size, stype)))
            )
            return PVar(target), PointerType(VOID)
        if name == "calloc":
            count_ast, size_ast = arguments(name, e.args, 2)
            count, ctype_ = self.expr(count_ast)
            size, stype = self.expr(size_ast)
            total = BinOpExpr(
                BinOp.MUL, self.rvalue(count, ctype_), self.rvalue(size, stype)
            )
            block = em.fresh_temp("blk")
            em.emit(USym(block, 0))
            target = em.fresh_temp("ptr")
            em.emit(ActionCall(target, "alloc", lst(PVar(block), total)))
            em.emit(
                ActionCall(em.fresh_temp(), "memset", lst(PVar(target), total, Lit(0)))
            )
            return PVar(target), PointerType(VOID)
        if name == "free":
            (ptr_ast,) = arguments(name, e.args, 1)
            pointer, _ = self.expr(ptr_ast)
            em.emit(ActionCall(em.fresh_temp(), "free", lst(pointer)))
            return Lit(0), VOID
        if name in ("memcpy", "memmove"):
            dst_ast, src_ast, n_ast = arguments(name, e.args, 3)
            dst, _ = self.expr(dst_ast)
            src, _ = self.expr(src_ast)
            n, ntype = self.expr(n_ast)
            em.emit(
                ActionCall(
                    em.fresh_temp(), "memcpy", lst(dst, src, self.rvalue(n, ntype))
                )
            )
            return dst, PointerType(VOID)
        if name == "memset":
            ptr_ast, value_ast, n_ast = arguments(name, e.args, 3)
            pointer, _ = self.expr(ptr_ast)
            value, vtype = self.expr(value_ast)
            n, ntype = self.expr(n_ast)
            em.emit(
                ActionCall(
                    em.fresh_temp(),
                    "memset",
                    lst(pointer, self.rvalue(n, ntype), self.rvalue(value, vtype)),
                )
            )
            return pointer, PointerType(VOID)
        if name == "block_size":
            (ptr_ast,) = arguments(name, e.args, 1)
            pointer, _ = self.expr(ptr_ast)
            target = em.fresh_temp("bnd")
            em.emit(ActionCall(target, "bounds", lst(pointer)))
            return PVar(target), INT
        if name not in self.sigs:
            raise CompileError(f"call to unknown function {name!r}")
        ret_type, param_types = self.sigs[name]
        if len(e.args) != len(param_types):
            raise CompileError(f"{name}: expected {len(param_types)} arguments")
        args = []
        for arg_ast in e.args:
            value, vtype = self.expr(arg_ast)
            args.append(self.rvalue(value, vtype))
        target = em.fresh_temp("ret")
        em.emit(Call(target, Lit(name), tuple(args)))
        return PVar(target), ret_type
