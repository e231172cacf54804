"""Eigenvalue/eigenvector conditioning and extremal spectral configurations.

The library computes eigenvalue and eigenvector condition numbers of dense
complex matrices, enumerates the unit-side triangular lattice whose prefixes
minimize the relative-error eigenvector conditioning to leading order, and
probes finite-size optimality with a soft-min descent optimizer.  The
`eigencond` CLI (see eigencond.cli) exposes everything as subcommands.

The exported names are loaded on first access (PEP 562), each from the module
that defines it, so `import eigencond` imports no numpy: the CLI's
--version, --help and reproduce never load it.  `eigencond.lattice` and the
other submodules can also be reached as attributes of the package.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "conditioning": ("ConditionReport", "EigenpairReport", "PerturbationResult",
                     "PerturbationRow", "condition_report", "condition_report_diagonal",
                     "kappa_lambda", "kappa_x", "perturbation_experiment"),
    "errors": ("ClusteredSpectrumError", "DuplicatePointsError", "IllPosedError",
               "NumericalError", "UsageError"),
    "extremal": ("AsymptoticRow", "convergence_study", "modulus_p_norm",
                 "separation_functional"),
    "lattice": ("Configuration", "LatticeSites", "enumerate_lattice_in_disk",
                "first_n_lattice_points", "first_n_sites", "lattice_count",
                "nearest_neighbor_distances", "pairwise_min_separation"),
    "linalg": ("SchurForm", "frobenius_norm", "operator_norm", "read_matrix",
               "right_eigenvector", "right_left_eigenpair", "schur", "write_matrix"),
    "optimizer": ("OptimizerConfig", "OptimizerResult", "gradient", "optimize",
                  "soft_separation_functional"),
    "shells": ("proposition_constant",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """An exported name, imported from its module on first access; a
    submodule that defines exports, imported on first access."""
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
