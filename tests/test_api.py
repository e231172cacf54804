"""The public surface: exported names, fixed tolerances, optimizer inputs,
and the one rule for errors: bad input exits 1, ill-posed mathematics 2."""

import ast
import dataclasses
import importlib
import inspect
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

import corpus
import eigencond
import eigencond.cli
import eigencond.optimizer
from eigencond.conditioning import perturbation_experiment
from eigencond.errors import UsageError
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


def test_bad_input_is_a_usage_error():
    # every argument check raises UsageError, a ValueError; the one plain
    # ValueError is an epsilon too large for unambiguous eigenvalue matching
    assert issubclass(UsageError, ValueError)
    plain = []
    for path in sorted(Path(eigencond.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Raise):
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                plain.append((path.name, ast.unparse(node)))
    assert len(plain) == 1 and plain[0][0] == "conditioning.py"
    assert "too large for unambiguous matching" in plain[0][1]


@pytest.mark.parametrize("epsilon", [math.nan, math.inf])
def test_nonfinite_epsilon_is_bad_input(epsilon):
    with pytest.raises(UsageError, match="epsilon must be positive and finite"):
        perturbation_experiment(np.diag([0.0, 1.0, 2.0]), epsilon, trials=1)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The corpus, in which good.mat is diag012.mat."""
    root = tmp_path_factory.mktemp("corpus")
    corpus.write(root)
    shutil.copy(root / "diag012.mat", root / "good.mat")
    return root


@pytest.mark.parametrize("argv, code, message", [
    ("reproduce --n 50", 1, "reproduce needs n >= 100"),
    ("lattice --r -1", 1, "radius must be finite and nonnegative"),
    ("lattice --r nan", 1, "radius must be finite and nonnegative"),
    ("lattice --r inf", 1, "--r asks for about inf points"),
    ("perturb good.mat --eps 0", 1, "epsilon must be positive and finite"),
    ("perturb good.mat --eps -1", 1, "epsilon must be positive and finite"),
    ("perturb good.mat --eps nan", 1, "epsilon must be positive and finite"),
    ("perturb good.mat --eps inf", 1, "epsilon must be positive and finite"),
    ("cond one.mat", 1, "condition reports need n >= 2"),
    ("perturb one.mat --eps 1e-6", 1, "condition reports need n >= 2"),
    ("asymptotics --p 0 --n-list 2,3", 1, "p must be positive"),
    ("asymptotics --p 2 --n-list 0,5", 1, "at least two points"),
    ("asymptotics --p 2 --n-list=-1,2", 1, "at least two points"),
    ("asymptotics --p 2 --n-list 1,5", 1, "at least two points"),
    ("asymptotics --p 2 --n-list=-1,2 --file three.csv", 1, "at least two points"),
    ("asymptotics --p 2 --n-list 0,5 --file three.csv", 1, "at least two points"),
    ("asymptotics --p 2 --n-list 1,5 --file three.csv", 1, "at least two points"),
    ("cond --diag latin1.csv", 1, "'utf-8' codec can't decode"),
    ("perturb --diag latin1.csv --eps 1e-6", 1, "'utf-8' codec can't decode"),
    ("asymptotics --p 2 --n-list 2 --file latin1.csv", 1, "'utf-8' codec can't decode"),
    ("optimize --n 3 --file latin1.csv", 1, "'utf-8' codec can't decode"),
    ("optimize --n 3 --p 0", 1, "p must be positive"),
    ("optimize --n 4 --file three.csv", 1, "init has 3 points, expected n=4"),
    ("asymptotics --p 2 --n-list 2,4 --file three.csv", 1,
     "the configuration has 3 points, need 4"),
    ("asymptotics --p 2 --n-list 2,3 --file dup.csv", 2,
     "the first 3 points are not pairwise distinct"),
    ("cond short.mat", 1, "expected 4 entry lines, found 3"),
    ("cond nan.mat", 1, "matrix entries must be finite"),
    # an explicit id keeps the test's name within 100 characters
    pytest.param("cond accent.mat", 1, "cannot read matrix file accent.mat",
                 id="cond accent.mat-1-cannot read matrix file"),
    ("perturb good.mat --eps 1", 2, "too large for unambiguous matching"),
    ("cond ident.mat", 2, "spectrum is clustered"),
    ("cond --diag dup.csv", 2, "pairwise distinct"),
    ("asymptotics --p 0.001 --n-list 2,3", 2, "overflows"),
    ("asymptotics --p 1e-320 --n-list 3", 2, "1/p overflows"),
    ("optimize --n 3 --p 1e-320", 2, "1/p overflows"),
])
def test_exit_codes_follow_one_rule(capsys, inputs, monkeypatch, argv, code, message):
    monkeypatch.chdir(inputs)
    assert eigencond.cli.main(argv.split()) == code
    out, err = capsys.readouterr()
    prefix = "error: " if code == 1 else "numerical error: "
    assert out == "" and err.startswith(prefix) and message in err
    assert err.count("\n") == 1
