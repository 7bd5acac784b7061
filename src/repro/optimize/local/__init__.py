"""The local optimization algorithm (the ``LM`` of Algorithm 1).

Powell's method (``local_minimizer="powell"``, the paper's setting) is the
one built-in minimizer.  Minimizers share the signature::

    minimize(func, x0, max_iterations=..., **options) -> OptimizeResult

and are looked up by name when a basin-hopping run starts, so a minimizer
registered under ``"powell"`` with ``replace=True`` (a tracing wrapper, say)
serves every later run.
"""

from __future__ import annotations

from typing import Callable

from repro.optimize.local.line_search import bracket_minimum, golden_section, minimize_scalar
from repro.optimize.local.powell import powell

#: Case-insensitive ``name -> minimizer`` map.
_MINIMIZERS: dict[str, Callable] = {"powell": powell}


def register_local_minimizer(name: str, func: Callable | None = None, *, replace: bool = False):
    """Register a local minimizer under ``name``.

    Usable as a decorator (``@register_local_minimizer("mine")``) or a
    plain call.  Re-registering an existing name raises unless
    ``replace=True``, so a typo cannot silently shadow Powell.
    """
    key = name.lower()

    def _register(target: Callable) -> Callable:
        if not callable(target):
            raise TypeError(f"local minimizer {name!r} must be callable, got {target!r}")
        if key in _MINIMIZERS and not replace:
            raise ValueError(f"local minimizer {name!r} is already registered")
        _MINIMIZERS[key] = target
        return target

    return _register(func) if func is not None else _register


def get_local_minimizer(name: str) -> Callable:
    """Look up a local minimizer by name (case-insensitive)."""
    try:
        return _MINIMIZERS[name.lower()]
    except KeyError:
        known = ", ".join(available_local_minimizers())
        raise ValueError(f"unknown local minimizer {name!r}; known: {known}") from None


def available_local_minimizers() -> tuple[str, ...]:
    """Names of every registered local minimizer, sorted."""
    return tuple(sorted(_MINIMIZERS))


def unregister_local_minimizer(name: str) -> None:
    """Remove a local minimizer from the registry (primarily for tests)."""
    _MINIMIZERS.pop(name.lower(), None)


__all__ = [
    "available_local_minimizers",
    "bracket_minimum",
    "get_local_minimizer",
    "golden_section",
    "minimize_scalar",
    "powell",
    "register_local_minimizer",
    "unregister_local_minimizer",
]
