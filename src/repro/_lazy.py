"""Package exports that import their defining module on first use (PEP 562).

A package root that re-exports names from its submodules would otherwise
import every one of them — numpy and the whole simulator included — for a
caller that wants one stdlib-only name, such as
``from repro.service import ServiceClient``. Each root instead installs the
module ``__getattr__`` and ``__dir__`` built here from a table of
``submodule -> exported names``; the first access imports the submodule
and caches the value in the package namespace, so later accesses are plain
attribute reads.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable


def lazy_exports(
    package: str, namespace: "dict[str, Any]", table: "dict[str, tuple[str, ...]]"
) -> "tuple[Callable[[str], Any], Callable[[], list[str]]]":
    """Return ``(__getattr__, __dir__)`` for ``package``.

    ``table`` maps a relative module name (``".client"``) to the names it
    exports; ``namespace`` is the package's ``globals()``.
    """
    where = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> "list[str]":
        return sorted({*namespace, *where})

    return __getattr__, __dir__
