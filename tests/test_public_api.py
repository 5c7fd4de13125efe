"""The documented public API is importable and wired correctly."""

import pathlib

import pytest


def test_top_level_exports():
    import repro

    for name in repro.__all__:
        assert getattr(repro, name) is not None

    assert repro.__version__


def test_subpackage_exports():
    import importlib

    for package in (
        "repro.gil",
        "repro.logic",
        "repro.state",
        "repro.engine",
        "repro.testing",
        "repro.soundness",
        "repro.frontend",
        "repro.targets",
    ):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert getattr(module, name) is not None, f"{package}.{name}"


def test_unknown_attribute_raises():
    import repro

    with pytest.raises(AttributeError):
        repro.NotAThing
    import repro.gil

    with pytest.raises(AttributeError):
        repro.gil.NotAThing


def test_readme_quickstart_runs():
    from repro import SymbolicTester, WhileLanguage

    source = """
    proc main() {
      n := symb_int();
      assume(0 <= n and n <= 100);
      assert(n * n < 10000);
    }
    """
    result = SymbolicTester(WhileLanguage()).run_source(source, "main")
    assert result.verdict == "bug"
    assert result.bugs[0].model == {"val_0_0": 100}
    assert result.bugs[0].confirmed


def test_readme_minic_example_runs():
    from repro import MiniCLanguage, SymbolicTester

    source = """
    int main() {
      int *a = (int *) malloc(3 * sizeof(int));
      int i = symb_int();
      assume(0 <= i && i <= 3);
      a[i] = 1;
      free(a);
      return 0;
    }
    """
    result = SymbolicTester(MiniCLanguage()).run_source(source, "main")
    assert result.verdict == "bug"
    assert result.bugs[0].model == {"val_1_0": 3}


def test_one_language_table():
    import repro
    import repro.service
    import repro.targets
    from repro.targets import LANGUAGES, MiniRustLanguage, language_for

    assert set(LANGUAGES) == {"while", "minijs", "minic", "rust"}
    assert repro.service.language_for is language_for
    assert MiniRustLanguage is repro.MiniRustLanguage
    for name, (_, cls) in LANGUAGES.items():
        assert cls in repro.__all__ and cls in repro.targets.__all__
        assert type(language_for(name)) is getattr(repro, cls)
        assert getattr(repro.targets, cls) is getattr(repro, cls)
    with pytest.raises(ValueError):
        language_for("js")


def test_importing_repro_loads_no_front_end():
    import os
    import subprocess
    import sys

    import repro

    code = (
        "import sys, repro; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.targets.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={
            **os.environ,
            "PYTHONPATH": str(pathlib.Path(repro.__file__).parent.parent),
        },
    ).stdout
    assert out.strip() == "['repro.targets.language']"
