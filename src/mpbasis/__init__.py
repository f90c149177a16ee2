"""Marginal product basis representations for multidimensional functional data.

The package learns a small set of multiplicatively separable basis functions
adapted to a sample of functions observed on a common grid, by a penalized CP
decomposition of a compressed data tensor, and performs fast penalized FPCA
on the resulting continuous representations.
"""

from .basis import BSplineBasis, FourierBasis
from .errors import NumericalError
from .fpca import FPCAResult, run_fpca
from .model import MPBModel
from .pipeline import FitReport, fit_mpb
from .solver import SolverConfig, SolverState

__all__ = [
    "BSplineBasis",
    "FourierBasis",
    "NumericalError",
    "FPCAResult",
    "run_fpca",
    "MPBModel",
    "FitReport",
    "fit_mpb",
    "SolverConfig",
    "SolverState",
]

__version__ = "0.1.0"
