"""Lazy re-exports for the package ``__init__`` modules (PEP 562).

Importing any submodule runs its package's ``__init__`` first, so a
package that re-exported its submodules' names eagerly made every
``import repro.<package>.<module>`` load the whole package.
:func:`lazy_exports` keeps each
package's public names and loads a name's defining submodule the first
time the name is read.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], List[str]]:
    """The module ``__getattr__`` and ``__all__`` of ``package``, which
    re-exports ``exports`` (submodule → the names it defines)."""
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__, list(home)
