"""Lazy package exports (PEP 562).

A package lists its public names in a map from name to the submodule
that defines it, ``"module"`` or ``"module:attribute"`` when the public
name is an alias.  :func:`exports` returns the package's
``__getattr__`` and ``__dir__``: a name's submodule is imported on its
first access, then the value is cached in the package namespace.  So
importing one light subpackage (``repro.kernels``, ``repro.runtime``)
does not import the solvers and their scipy dependency.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Tuple


def exports(
    package: str, names: Dict[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair serving ``names`` lazily
    from ``package``'s submodules."""

    def __getattr__(name: str) -> Any:
        try:
            target = names[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        module, _, attribute = target.partition(":")
        value = getattr(
            importlib.import_module(f".{module}", package), attribute or name
        )
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(names))

    return __getattr__, __dir__
