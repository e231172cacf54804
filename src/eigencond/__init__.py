"""Eigenvalue/eigenvector conditioning and extremal spectral configurations.

The library computes eigenvalue and eigenvector condition numbers of dense
complex matrices, enumerates the unit-side triangular lattice whose prefixes
minimize the relative-error eigenvector conditioning to leading order, and
probes finite-size optimality with a soft-min descent optimizer.  The
`eigencond` CLI (see eigencond.cli) exposes everything as subcommands.
"""

__version__ = "0.1.0"

from .conditioning import (ConditionReport, EigenpairReport, PerturbationResult,
                           PerturbationRow, condition_report,
                           condition_report_diagonal, kappa_lambda, kappa_x,
                           perturbation_experiment)
from .errors import (ClusteredSpectrumError, DuplicatePointsError, IllPosedError,
                     NumericalError, UsageError)
from .extremal import (AsymptoticRow, convergence_study, modulus_p_norm,
                       proposition_constant, separation_functional)
from .lattice import (Configuration, LatticeSites, enumerate_lattice_in_disk,
                      first_n_lattice_points, first_n_sites, lattice_count,
                      nearest_neighbor_distances, pairwise_min_separation)
from .linalg import (SchurForm, frobenius_norm, operator_norm, read_matrix,
                     right_eigenvector, right_left_eigenpair, schur, write_matrix)
from .optimizer import (OptimizerConfig, OptimizerResult, gradient, optimize,
                        soft_separation_functional)

__all__ = [
    "AsymptoticRow", "ClusteredSpectrumError", "ConditionReport", "Configuration",
    "DuplicatePointsError", "EigenpairReport", "IllPosedError", "LatticeSites",
    "NumericalError", "OptimizerConfig", "OptimizerResult", "PerturbationResult",
    "PerturbationRow", "SchurForm", "UsageError", "condition_report",
    "condition_report_diagonal", "convergence_study", "enumerate_lattice_in_disk",
    "first_n_lattice_points", "first_n_sites", "frobenius_norm", "gradient",
    "kappa_lambda", "kappa_x", "lattice_count", "modulus_p_norm",
    "nearest_neighbor_distances", "operator_norm", "optimize",
    "pairwise_min_separation", "perturbation_experiment", "proposition_constant",
    "read_matrix", "right_eigenvector", "right_left_eigenpair", "schur",
    "separation_functional", "soft_separation_functional", "write_matrix",
]
