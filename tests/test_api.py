"""The public surface: exported names, fixed tolerances, optimizer inputs."""

import dataclasses
import importlib
import inspect

import eigencond
import eigencond.cli
import eigencond.optimizer
from eigencond.optimizer import OptimizerConfig

PUBLIC_NAMES = [
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


def test_exported_names():
    assert sorted(eigencond.__all__) == sorted(PUBLIC_NAMES)
    assert all(hasattr(eigencond, name) for name in eigencond.__all__)


def test_no_tolerance_parameters():
    # every tolerance is a module constant (linalg.EIG_RESIDUAL_TOL, ...)
    for name in eigencond.__all__:
        obj = getattr(eigencond, name)
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except ValueError:  # builtins without a signature
            continue
        assert not [p for p in params if p.endswith("_tol")], name


def test_optimizer_config_holds_only_cli_inputs(monkeypatch, capsys, tmp_path):
    seen = {}

    def recording(**kwargs):
        seen.update(kwargs)
        return OptimizerConfig(**kwargs)

    monkeypatch.setattr(eigencond.optimizer, "OptimizerConfig", recording)
    out = tmp_path / "out.csv"
    assert eigencond.cli.main(["optimize", "--n", "3", "--max-iters", "1",
                               "--output", str(out)]) == 0
    capsys.readouterr()
    assert set(seen) == {f.name for f in dataclasses.fields(OptimizerConfig)}


def test_star_import_gives_the_defining_modules_objects():
    # the exports load lazily; each is the object its defining module holds
    namespace = {}
    exec("from eigencond import *", namespace)
    exported = {name: namespace[name] for name in PUBLIC_NAMES}
    assert len(exported) == 40
    for name, obj in exported.items():
        assert obj.__name__ == name
        assert obj is getattr(importlib.import_module(obj.__module__), name), name
        assert getattr(eigencond, name) is obj
    assert set(PUBLIC_NAMES) <= set(dir(eigencond))
    assert not hasattr(eigencond, "no_such_name")
