"""Numerical toolkit for weighted Bergman spaces on the disk, bidisk and
ball: hyperbolic geometry, weighted quadrature, Lipschitz witnesses and
the symmetric lifting operator, with falsifiable experiment suites."""

from ._version import __version__

from .errors import DomainError, ParameterError
from .geometry import (EuclideanDisk, ball_metric, ball_phi, beta,
                       double_radius, mobius, pseudo_disk, rho)
from .functions import (BallPoly, HoloFunction, LogKernel, PowerSingularity,
                        TaylorPoly, radial_metric_ratio)
from .quadrature import (BallGrid, BidiskGrid, DiskGrid, NormResult,
                         WeightParams, derivative_seminorm,
                         fit_growth_exponent, monomial_norm_exact, norm_p)
from .witness import (ViolationReport, Witness, build_witness,
                      build_witness_ball, derivative_bound_check,
                      local_sup_h, verify_lipschitz, witness_integrability)
from .lifting import (LiftedFunction, TensorPoly, bidisk_norm,
                      divergence_demo, lift, lifted_norm_series,
                      lifting_scan, log_weighted_norm)

__all__ = [
    "DomainError", "ParameterError",
    "EuclideanDisk", "ball_metric", "ball_phi", "beta", "double_radius",
    "mobius", "pseudo_disk", "rho",
    "BallPoly", "HoloFunction", "LogKernel", "PowerSingularity",
    "TaylorPoly", "radial_metric_ratio",
    "BallGrid", "BidiskGrid", "DiskGrid", "NormResult", "WeightParams",
    "derivative_seminorm", "fit_growth_exponent",
    "monomial_norm_exact", "norm_p",
    "ViolationReport", "Witness", "build_witness", "build_witness_ball",
    "derivative_bound_check", "local_sup_h", "verify_lipschitz",
    "witness_integrability",
    "LiftedFunction", "TensorPoly", "bidisk_norm",
    "divergence_demo", "lift", "lifted_norm_series",
    "lifting_scan", "log_weighted_norm",
]
