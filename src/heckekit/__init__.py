"""
heckekit: exact computations in type-A Hecke algebras and parabolic
spherical modules, with the subexpression enumeration and Demazure
machinery needed to check non-perversity certificates.

Importing the package loads none of its modules, and
`from heckekit import hecke` loads `hecke` alone (with what it imports),
so a process pays only for the modules it runs.
"""

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
