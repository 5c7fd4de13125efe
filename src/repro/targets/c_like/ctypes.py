"""MiniC types and data layout (paper §4.2).

CompCert-style layout: values are stored in memory as sequences of
byte-sized memory values, addressed by (block, offset).  Loads and stores
go through *memory chunks* ``[size, align, type]`` indicating the size,
alignment, and type of the access.

Scalar sizes: ``char`` 1 byte, ``int`` 4 bytes (also ``bool``), pointers
8 bytes.  Struct fields are laid out in declaration order with natural
alignment padding, as a C compiler would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.frontend.emitter import CompileError


class CType:
    """Base class for MiniC types."""

    __slots__ = ()


@dataclass(frozen=True)
class IntType(CType):
    """int (4 bytes) — also used for bool results."""

    def __repr__(self) -> str:
        return "int"


@dataclass(frozen=True)
class CharType(CType):
    """char (1 byte)."""

    def __repr__(self) -> str:
        return "char"


@dataclass(frozen=True)
class VoidType(CType):
    """void — only valid behind a pointer or as a return type."""

    def __repr__(self) -> str:
        return "void"


@dataclass(frozen=True)
class PointerType(CType):
    """Pointer to ``pointee``."""

    pointee: CType

    def __repr__(self) -> str:
        return f"{self.pointee!r}*"


@dataclass(frozen=True)
class StructType(CType):
    """A named struct type; its field layout lives in the TypeTable."""

    name: str

    def __repr__(self) -> str:
        return f"struct {self.name}"


@dataclass(frozen=True)
class ArrayType(CType):
    """A fixed-size local/struct array; decays to a pointer in expressions."""

    element: CType
    length: int

    def __repr__(self) -> str:
        return f"{self.element!r}[{self.length}]"


INT = IntType()
CHAR = CharType()
VOID = VoidType()


@dataclass
class StructLayout:
    """Computed field offsets, total size, and alignment of a struct."""

    name: str
    #: field name → (offset, type)
    fields: Dict[str, Tuple[int, CType]]
    size: int
    align: int


@dataclass
class TypeTable:
    """Struct layouts and size/alignment computation."""

    structs: Dict[str, StructLayout] = field(default_factory=dict)

    def define_struct(self, name: str, fields: List[Tuple[str, CType]]) -> StructLayout:
        if name in self.structs:
            raise CompileError(f"struct {name} redefined")
        offset = 0
        max_align = 1
        table: Dict[str, Tuple[int, CType]] = {}
        for fname, ftype in fields:
            align = self.align_of(ftype)
            size = self.size_of(ftype)
            offset = _round_up(offset, align)
            table[fname] = (offset, ftype)
            offset += size
            max_align = max(max_align, align)
        layout = StructLayout(name, table, _round_up(offset, max_align), max_align)
        self.structs[name] = layout
        return layout

    def layout(self, t: StructType) -> StructLayout:
        if t.name not in self.structs:
            raise CompileError(f"unknown struct {t.name}")
        return self.structs[t.name]

    def size_of(self, t: CType) -> int:
        if isinstance(t, IntType):
            return 4
        if isinstance(t, CharType):
            return 1
        if isinstance(t, PointerType):
            return 8
        if isinstance(t, StructType):
            return self.layout(t).size
        if isinstance(t, ArrayType):
            return self.size_of(t.element) * t.length
        if isinstance(t, VoidType):
            raise CompileError("void has no size")
        raise CompileError(f"unknown type {t!r}")

    def align_of(self, t: CType) -> int:
        if isinstance(t, (IntType,)):
            return 4
        if isinstance(t, CharType):
            return 1
        if isinstance(t, PointerType):
            return 8
        if isinstance(t, StructType):
            return self.layout(t).align
        if isinstance(t, ArrayType):
            return self.align_of(t.element)
        raise CompileError(f"unknown type {t!r}")

    def chunk_of(self, t: CType) -> Tuple[int, int, str]:
        """The memory chunk ``[size, align, type]`` for a scalar access."""
        if isinstance(t, IntType):
            return (4, 4, "int32")
        if isinstance(t, CharType):
            return (1, 1, "int8")
        if isinstance(t, PointerType):
            return (8, 8, "ptr")
        raise CompileError(f"no scalar chunk for {t!r}")


def _round_up(value: int, align: int) -> int:
    return (value + align - 1) // align * align


def is_pointer(t: CType) -> bool:
    return isinstance(t, (PointerType, ArrayType))


def is_scalar(t: CType) -> bool:
    return isinstance(t, (IntType, CharType, PointerType))
