"""
heckekit: exact computations in type-A Hecke algebras and parabolic
spherical modules, with the subexpression enumeration and Demazure
machinery needed to check non-perversity certificates.

The modules load on first use (`heckekit.hecke` imports `hecke`), so a
process pays only for the modules it runs.
"""
import importlib

__version__ = "0.1.0"

__all__ = [
    "coxeter",
    "demazure",
    "hecke",
    "laurent",
    "spherical",
    "subexpr",
    "worddata",
]


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
