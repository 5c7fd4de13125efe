"""Shared fixtures: every specs test starts from a cold summary cache."""

import importlib

import pytest

from repro.specs.cache import clear_summary_cache

#: (label prefix, language class name, suites module) of the paper's
#: Table 1, 2 and 3 corpora
TABLES = (
    ("table1", "MiniJSLanguage", "repro.targets.js_like.buckets.suites"),
    ("table2", "MiniCLanguage", "repro.targets.c_like.collections.suites"),
    ("table3", "MiniRustLanguage", "repro.targets.rust_like.collections.suites"),
)


@pytest.fixture(autouse=True)
def _cold_summary_cache():
    """The in-memory summary cache is process-wide; isolate each test."""
    clear_summary_cache()
    yield
    clear_summary_cache()


@pytest.fixture(scope="session")
def table_programs():
    """Every Table 1/2/3 suite compiled once: ``(label, language, prog,
    test entries)`` for the 24 programs."""
    import repro

    programs = []
    for table, language_name, module_name in TABLES:
        module = importlib.import_module(module_name)
        language = getattr(repro, language_name)()
        for name in module.suite_names():
            source, tests = module.suite(name)
            programs.append(
                (f"{table}/{name}", language, language.compile(source), tests)
            )
    return programs
