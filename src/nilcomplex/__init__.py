"""Exact verification of complex structures on 6-dimensional nilpotent
real Lie algebras: integrability, equivalence witnesses, holomorphic
charts, group multiplication and moduli dimensions, all in exact rational
arithmetic (rank decisions excepted)."""

from .exactnum import GaussianRational, MultiPoly, Rational
from .liecore import LieAlgebra
from .acs import (AlmostComplexStructure, classify_m, is_integrable,
                  m_subalgebra, nijenhuis)

__all__ = [
    "AlmostComplexStructure",
    "GaussianRational",
    "LieAlgebra",
    "MultiPoly",
    "Rational",
    "classify_m",
    "is_integrable",
    "m_subalgebra",
    "nijenhuis",
]

__version__ = "0.1.0"
