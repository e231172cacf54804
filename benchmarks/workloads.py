"""Seeded inputs for the four benchmark workloads.

Each workload is a list of operations: the argv handed to
`eigencond.cli.main`, the units of work the operation completes, and what
the oracle needs to check its output.  Nothing here imports eigencond: the
inputs and the expected values are built independently of the program under
test, so an oracle cannot inherit a defect from it.

A run executes a fixed number of passes of its workload's mix.  The number is
`seconds / NOMINAL_PASS_S` rounded, so that a run lasts about `--seconds` at
the seed commit while every commit executes the same operations.  A fixed
count keeps the latency percentiles comparable: with a time-bounded loop a
faster commit would run more operations and its tail percentile would land on
a different operation class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg

WORKLOADS = ("reproduce", "lattice_scan", "dense_cond", "optimize")

# Seconds per pass of each mix at the seed commit (2-core x86 box, Python
# 3.11, numpy 2.4 with OpenBLAS, scipy 1.17).
NOMINAL_PASS_S = {"reproduce": 3.4, "lattice_scan": 5.0, "dense_cond": 4.0,
                  "optimize": 5.0}

REPRODUCE_N = (5_000, 10_000, 20_000)
ASYMPTOTICS_P = ("1", "2", "4", "inf")
ASYMPTOTICS_N = (1_000, 10_000, 100_000)
DENSE_N = (40, 80, 120)
FAMILIES = ("ginibre", "normal", "grcar")
PERTURB_TRIALS = 200
OPTIMIZE_N = (12, 30, 60)
OPTIMIZE_P = ("2", "inf")
OPTIMIZE_INIT = ("random", "lattice")
OPTIMIZE_RESTARTS = 1

ROW_HEIGHT = math.sqrt(3.0) / 2.0


@dataclass
class Op:
    """One CLI invocation of a workload."""

    kind: str
    argv: list[str]
    items: int
    files: dict[str, Path] = field(default_factory=dict)  # output files by role
    expect: dict = field(default_factory=dict)


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def _grid(r: float):
    """Integer coordinates (a, b) of a square that covers the disk of radius r."""
    k = int(math.ceil(2.0 * r / math.sqrt(3.0))) + 1
    a, b = np.meshgrid(np.arange(-k, k + 1, dtype=np.int64),
                       np.arange(-k, k + 1, dtype=np.int64), indexing="ij")
    return a.ravel(), b.ravel()


def lattice_q(r: float) -> np.ndarray:
    """Sorted integer forms a^2 + ab + b^2 of every lattice site with q <= r^2."""
    a, b = _grid(r)
    q = a * a + a * b + b * b
    return np.sort(q[q <= r * r])


def prefix_radius(n: int) -> float:
    """A radius whose disk holds more than n lattice sites."""
    return math.sqrt(n * ROW_HEIGHT / math.pi) + 3.0


def lattice_prefix(n: int) -> np.ndarray:
    """First n lattice sites by modulus (ties by argument), as complex numbers."""
    a, b = _grid(prefix_radius(n))
    q = a * a + a * b + b * b
    z = (a + 0.5 * b) + 1j * (b * ROW_HEIGHT)
    return z[np.lexsort((np.mod(np.angle(z), 2.0 * math.pi), q))[:n]]


def haar_unitary(rng, n: int) -> np.ndarray:
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def grcar(n: int, k: int = 3) -> np.ndarray:
    """Grcar matrix: -1 subdiagonal, ones on the diagonal and k superdiagonals."""
    a = np.eye(n, dtype=np.complex128) - np.eye(n, k=-1)
    for j in range(1, k + 1):
        a += np.eye(n, k=j)
    return a


def make_matrix(family: str, n: int, rng):
    """Dense test matrix and, for the normal family, its exact spectrum."""
    if family == "ginibre":
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return g / math.sqrt(2.0 * n), None
    q = haar_unitary(rng, n)
    if family == "normal":
        z = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)) \
            * lattice_prefix(n)
        return (q * z) @ q.conj().T, z
    if family == "grcar":
        return q.conj().T @ grcar(n) @ q, None
    raise ValueError(family)


def write_matrix(path: Path, a: np.ndarray) -> None:
    """Matrix text format read by `eigencond cond`: n, then n*n 're im' lines."""
    lines = [str(a.shape[0])]
    lines += [f"{float(v.real)!r} {float(v.imag)!r}" for v in a.ravel()]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def perturb_eps(a: np.ndarray) -> float:
    """Perturbation size for `perturb`: inside its matching precondition
    eps <= min_gap / (10 ||A||_F), and small enough that the largest
    first-order eigenvalue shift stays below 1e-4 of the gap."""
    w, vl, vr = scipy.linalg.eig(a, left=True, right=True)
    d = np.abs(w[:, None] - w[None, :])
    np.fill_diagonal(d, np.inf)
    gap = float(d.min())
    overlap = np.abs(np.sum(vl.conj() * vr, axis=0))
    kappa = float(np.max(np.linalg.norm(vl, axis=0) * np.linalg.norm(vr, axis=0) / overlap))
    nf = float(np.linalg.norm(a))
    eps = min(gap / (40.0 * nf), 1e-4 * gap / (nf * kappa))
    return float(f"{eps:.3e}")


def build(workload: str, seed: int, passes: int, workdir: Path) -> list[Op]:
    """The operations of `passes` passes, shuffled by the seed."""
    workdir.mkdir(parents=True, exist_ok=True)
    ops: list[Op] = []
    for k in range(passes):
        rng = np.random.default_rng((seed, k))
        ops.extend(_PASS[workload](rng, k, workdir / f"p{k}"))
    order = np.random.default_rng((seed, passes, 1)).permutation(len(ops))
    return [ops[i] for i in order]


def _reproduce_pass(rng, k, prefix):
    return [Op("reproduce", ["reproduce", "--n", str(n)], n, expect={"n": n})
            for n in REPRODUCE_N]


def _lattice_pass(rng, k, prefix):
    n = 100_000 - int(rng.integers(0, 1000))
    # radius k + 1/2: q is an integer and r^2 = k^2 + k + 1/4, so no site
    # lies within rounding of the boundary and the expected count is exact
    r = int(rng.integers(158, 163)) + 0.5
    count = int(lattice_q(r).size)
    by_n, by_r = Path(f"{prefix}_n.csv"), Path(f"{prefix}_r.csv")
    ops = [Op("lattice", ["lattice", "--n", str(n), "--output", str(by_n)], n,
              files={"output": by_n}, expect={"n": n}),
           Op("lattice", ["lattice", "--r", repr(r), "--output", str(by_r)], count,
              files={"output": by_r}, expect={"r": r, "count": count})]
    n_list = ",".join(str(v) for v in ASYMPTOTICS_N)
    ops += [Op("asymptotics", ["asymptotics", "--p", p, "--n-list", n_list],
               sum(ASYMPTOTICS_N), expect={"p": float(p), "n_list": ASYMPTOTICS_N})
            for p in ASYMPTOTICS_P]
    return ops


def _dense_pass(rng, k, prefix):
    ops = []
    for j, n in enumerate(DENSE_N):
        # families rotate across passes, so every pass holds each size once
        family = FAMILIES[(k + j) % len(FAMILIES)]
        a, z = make_matrix(family, n, rng)
        path = Path(f"{prefix}_{family}{n}.mat")
        write_matrix(path, a)
        expect = {"family": family, "matrix": a, "spectrum": z,
                  "sample_seed": int(rng.integers(2**31))}
        ops.append(Op("cond", ["cond", str(path)], n, expect=expect))
        if n == DENSE_N[0]:
            eps = perturb_eps(a)
            ops.append(Op("perturb", ["perturb", str(path), "--eps", repr(eps),
                                      "--trials", str(PERTURB_TRIALS),
                                      "--seed", str(int(rng.integers(2**31)))],
                          n, expect=dict(expect, eps=eps)))
    return ops


def _optimize_pass(rng, k, prefix):
    ops = []
    for n in OPTIMIZE_N:
        for p in OPTIMIZE_P:
            for init in OPTIMIZE_INIT:
                trace = Path(f"{prefix}_opt{n}_{p}_{init}.jsonl")
                argv = ["optimize", "--n", str(n), "--p", p, "--init", init,
                        "--restarts", str(OPTIMIZE_RESTARTS),
                        "--seed", str(int(rng.integers(2**31))), "--trace", str(trace)]
                ops.append(Op("optimize", argv, OPTIMIZE_RESTARTS,
                              files={"trace": trace},
                              expect={"n": n, "p": float(p), "init": init}))
    return ops


_PASS = {"reproduce": _reproduce_pass, "lattice_scan": _lattice_pass,
         "dense_cond": _dense_pass, "optimize": _optimize_pass}
