"""Exact quantization of the Witt algebra and its mod-p reduction.

Characteristic 0: the enveloping algebra over Q with its twisted Hopf
structure, computed both from closed formulas and by twist conjugation, over
truncated t-adic series.  Characteristic p: the restricted enveloping algebra
of the periodic Witt algebra with its p-1 families of exact polynomial Hopf
deformations.  Every identity the construction rests on has a mechanical
verifier; the CLI front end exposes structure maps, JSON tables, and the
verification suites.
"""

__version__ = "0.1.0"

from .hopf0 import HopfParams
from .hopfp import HopfParamsP, PolyP
from .report import VerificationReport
from .restricted import ElementP
from .scalars import FpElem, gen_binomial, int_coeff, n_coeff
from .series import Deformation, Series
from .uwitt import Element

__all__ = [
    "Deformation",
    "Element",
    "ElementP",
    "FpElem",
    "HopfParams",
    "HopfParamsP",
    "PolyP",
    "Series",
    "VerificationReport",
    "gen_binomial",
    "int_coeff",
    "n_coeff",
    "__version__",
]
