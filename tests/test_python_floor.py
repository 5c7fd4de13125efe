"""Every module parses under the oldest Python that ``setup.py`` admits.

``ast.parse(..., feature_version=...)`` rejects syntax newer than that
version, such as ``except*`` under 3.10, without needing the old
interpreter.  Regular-expression syntax is not Python syntax; the lexer's
pattern is guarded by ``test_pattern_uses_no_python_311_syntax``.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _floor():
    declared = re.search(
        r'python_requires=">=(\d+)\.(\d+)"', (ROOT / "setup.py").read_text()
    )
    return int(declared[1]), int(declared[2])


def test_floor_is_declared():
    assert _floor() == (3, 10)


def test_every_module_parses_at_the_floor():
    floor = _floor()
    failures = []
    for package in ("src", "tests", "tools", "benchmarks"):
        for path in sorted((ROOT / package).rglob("*.py")):
            try:
                ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=floor)
            except SyntaxError as exc:
                failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert failures == []


def test_newer_syntax_is_rejected_at_the_floor():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=_floor())
