"""Package exports resolved on first use (PEP 562 module ``__getattr__``).

A package whose ``__init__`` imports its heavy submodules makes importing
any one of them load them all.  :func:`lazy_exports` instead gives the
package a ``__getattr__`` that imports an exported name from its module
the first time it is read.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """The module ``__getattr__`` of ``package``, exporting each name of
    ``exports`` (defining module -> names) from its defining module.  A
    name must not also be a submodule of ``package``: importing that
    submodule would bind the name to it."""
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)  # later reads skip this hook
        return value

    return __getattr__
