"""Target-language instantiations of Gillian (paper §2.2, §4).

:data:`LANGUAGES` is the one registry of target languages: each name
maps to the module and class of its instantiation.  Lookups through it
are lazy, so importing this package loads no front end.
"""

import importlib
from typing import Dict, Optional, Tuple

from repro.targets.language import Language

#: registry name -> (module, class) of every target language
LANGUAGES: Dict[str, Tuple[str, str]] = {
    "while": ("repro.targets.while_lang", "WhileLanguage"),
    "minijs": ("repro.targets.js_like", "MiniJSLanguage"),
    "minic": ("repro.targets.c_like", "MiniCLanguage"),
    "rust": ("repro.targets.rust_like", "MiniRustLanguage"),
}

__all__ = ["LANGUAGES", "Language", "language_class", "language_for"] + [
    cls for _, cls in LANGUAGES.values()
]


def _load(module: str, cls: str) -> type:
    return getattr(importlib.import_module(module), cls)


def language_class(class_name: str) -> Optional[type]:
    """The registered language class called ``class_name``, imported on
    first use; None when no registered language has that name."""
    for module, cls in LANGUAGES.values():
        if cls == class_name:
            return _load(module, cls)
    return None


def language_for(name: str) -> Language:
    """Instantiate the target language registered under ``name``."""
    if name not in LANGUAGES:
        raise ValueError(
            f"unknown language {name!r}; expected one of {sorted(LANGUAGES)}"
        )
    return _load(*LANGUAGES[name])()


def __getattr__(name):
    found = language_class(name)
    if found is None:
        raise AttributeError(f"module 'repro.targets' has no attribute {name!r}")
    return found
