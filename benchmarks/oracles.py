"""Output oracles, run after the timed phase.

Each check takes the operation and the text the CLI produced and returns
None when the output is right, or a one-line reason when it is not.  The
expected values come from `workloads` and from independent numpy
computations, never from eigencond itself.  Tolerances leave room for the
changes the roadmap plans (new perturbation seed streams, a Schur-native
kappa_x agreeing to 1e-10) and are far below a 1e-6 relative error.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from workloads import (ASYMPTOTICS_N, PERTURB_TRIALS, lattice_prefix, lattice_q,
                       prefix_radius)

EPS = float(np.finfo(float).eps)
REL_TOL = 1e-8            # exact quantities recomputed another way
RESIDUAL_TOL = 1e-8       # * ||A||_F: the program's own eigenvalue tolerance
SHIFT_SLACK = 1e-3        # first-order law, as in the acceptance suite
ASYMPTOTICS_BAND = {math.inf: 0.03}  # |ratio/target - 1|; 0.05 for finite p
SAMPLED_EIGENPAIRS = 4    # non-normal matrices: eigenpairs rechecked by SVD


def c_p(p: float) -> float:
    """Leading-order constant (2/(p+2))^(1/p) * 3^(1/4) / sqrt(2 pi)."""
    base = 3.0 ** 0.25 / math.sqrt(2.0 * math.pi)
    return base if math.isinf(p) else (2.0 / (p + 2.0)) ** (1.0 / p) * base


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _rows(text: str) -> tuple[list[str], list[list[str]]]:
    rows = [r for r in csv.reader(io.StringIO(text)) if r]
    if not rows:
        raise ValueError("empty output")
    return rows[0], rows[1:]


def p_norm(moduli: np.ndarray, p: float) -> float:
    top = float(moduli.max())
    if math.isinf(p) or top == 0.0:
        return top
    return top * float(np.sum((moduli / top) ** p)) ** (1.0 / p)


def min_gap(z: np.ndarray) -> float:
    d = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(d, np.inf)
    return float(d.min())


def check_reproduce(op, text: str) -> str | None:
    header, rows = _rows(text)
    if header != ["norm", "n", "measured_ratio", "target", "rel_deviation"] or len(rows) != 2:
        return "reproduce: unexpected layout"
    n = op.expect["n"]
    q = lattice_q(prefix_radius(n))[:n].astype(float)
    expected = {"frobenius": (math.sqrt(q.sum()) / n, c_p(2.0)),
                "operator": (math.sqrt(q[-1]) / math.sqrt(n), c_p(math.inf))}
    for norm, n_text, measured, target, dev in rows:
        ratio, c = expected[norm]
        measured, target, dev = float(measured), float(target), float(dev)
        if int(n_text) != n:
            return f"reproduce --n {n}: row reports n={n_text}"
        if not (_close(measured, ratio, REL_TOL) and _close(target, c, 1e-14)):
            return f"reproduce --n {n} {norm}: ratio {measured} vs {ratio}, target {target} vs {c}"
        if not _close(dev, abs(measured - target) / target, REL_TOL):
            return f"reproduce --n {n} {norm}: rel_deviation {dev} inconsistent"
        # the deviation must be below 3% and inside an envelope shrinking like
        # n^(-1/2); it oscillates with shell filling, so it is not monotone in n
        if not (dev < 0.03 and dev <= 0.25 / math.sqrt(n)):
            return f"reproduce --n {n} {norm}: rel_deviation {dev} outside the band"
    return None


def check_lattice(op, path) -> str | None:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if header != "index,a,b,re,im,modulus":
        return f"lattice: unexpected header {header!r}"
    if "n" in op.expect:
        expected = lattice_q(prefix_radius(op.expect["n"]))[:op.expect["n"]]
        what = f"lattice --n {op.expect['n']}"
    else:
        expected = lattice_q(op.expect["r"])
        what = f"lattice --r {op.expect['r']}"
    if data.shape[0] != expected.size:
        return f"{what}: {data.shape[0]} rows, expected {expected.size}"
    index, a, b = (data[:, j].astype(np.int64) for j in range(3))
    if not np.array_equal(index, np.arange(index.size)):
        return f"{what}: index column is not 0..n-1"
    q = a * a + a * b + b * b
    if np.any(np.diff(q) < 0):
        return f"{what}: a^2+ab+b^2 decreases"
    if not np.array_equal(q, expected):
        return f"{what}: site set differs from the lattice prefix"
    z = (a + 0.5 * b) + 1j * (b * (math.sqrt(3.0) / 2.0))
    scale = 1e-12 * (1.0 + np.abs(z))
    if np.any(np.abs(data[:, 3] + 1j * data[:, 4] - z) > scale) \
            or np.any(np.abs(data[:, 5] - np.abs(z)) > scale):
        return f"{what}: coordinates do not match (a, b)"
    return None


def check_asymptotics(op, text: str) -> str | None:
    header, rows = _rows(text)
    p = op.expect["p"]
    if header != ["n", "raw", "scale", "ratio", "target", "margin"] \
            or [int(r[0]) for r in rows] != list(ASYMPTOTICS_N):
        return f"asymptotics --p {p}: unexpected layout"
    moduli = np.abs(lattice_prefix(ASYMPTOTICS_N[-1]))
    band = ASYMPTOTICS_BAND.get(p, 0.05)
    for row in rows:
        n, (raw, scale, ratio, target, margin) = int(row[0]), map(float, row[1:])
        exp_raw = p_norm(moduli[:n], p)  # a lattice prefix has minimum gap 1
        exp_scale = float(n) ** (0.5 + (0.0 if math.isinf(p) else 1.0 / p))
        if not (_close(raw, exp_raw, REL_TOL) and _close(scale, exp_scale, 1e-12)
                and _close(target, c_p(p), 1e-14) and _close(ratio, raw / scale, 1e-12)
                and _close(margin, ratio / target, 1e-12)):
            return f"asymptotics --p {p} n={n}: values differ from the lattice S_p"
        if abs(margin - 1.0) >= band:
            return f"asymptotics --p {p} n={n}: ratio/target {margin} outside +-{band}"
    return None


def _condition_table(text: str, n: int):
    header, rows = _rows(text)
    if header[:4] != ["lambda_re", "lambda_im", "kappa_lambda", "kappa_x"]:
        raise ValueError(f"unexpected header {header}")
    body = [r for r in rows if r[0] not in ("kappa_max", "excluded_trials")]
    if len(body) != n:
        raise ValueError(f"{len(body)} eigenpair rows, expected {n}")
    table = np.array([[float(v) for v in r] for r in body])
    footer = {r[0]: [float(v) for v in r[1:]] for r in rows if r[0] in
              ("kappa_max", "excluded_trials")}
    return table, footer


def _check_normal(table, z) -> str | None:
    """Q diag(z) Q^H: kappa_lambda = 1 and kappa_x = 1 / nearest gap."""
    lam = table[:, 0] + 1j * table[:, 1]
    d = np.abs(lam[:, None] - z[None, :])
    match = np.argmin(d, axis=1)
    if np.unique(match).size != z.size or \
            np.any(d[np.arange(z.size), match] > 1e-10 * np.abs(z).max()):
        return "eigenvalues differ from the generated spectrum"
    gaps = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(gaps, np.inf)
    nearest = gaps.min(axis=1)[match]
    if np.any(np.abs(table[:, 2] - 1.0) > REL_TOL):
        return "kappa_lambda != 1 on a normal matrix"
    bad = np.abs(table[:, 3] * nearest - 1.0) > REL_TOL
    if np.any(bad):
        i = int(np.argmax(bad))
        return f"kappa_x {table[i, 3]} != 1/gap {1.0 / nearest[i]} on a normal matrix"
    return None


def _check_sampled(a, table, seed) -> str | None:
    """Independent SVD check of sampled eigenpairs of a non-normal matrix.

    The sample always holds the eigenpair with the largest kappa_x, which
    sets kappa_max.  Its deflated block comes from a QR completion of the
    eigenvector, not the program's Householder one; the two blocks are
    unitarily similar, so sigma_min agrees up to rounding of size
    eps * ||A|| * kappa_x, which sets the tolerance.
    """
    n = a.shape[0]
    nf = float(np.linalg.norm(a))
    kx = table[:, 3]
    rng = np.random.default_rng(seed)
    sample = {int(np.argmax(kx))} | {int(i) for i in rng.choice(n, SAMPLED_EIGENPAIRS - 1,
                                                             replace=False)}
    eye = np.eye(n)
    for i in sorted(sample):
        lam = complex(table[i, 0], table[i, 1])
        u, s, vh = np.linalg.svd(a - lam * eye)
        if s[-1] > RESIDUAL_TOL * nf:
            return f"lambda {lam} is not an eigenvalue: sigma_min {s[-1]:.3e}"
        x, y = vh[-1].conj(), u[:, -1]
        if not math.isfinite(kx[i]):
            continue  # a singular deflated block is not recomputed exactly
        tol = REL_TOL + 8.0 * EPS * nf * kx[i]
        if tol >= 0.5:
            continue  # kappa_x beyond what double precision resolves
        q, _ = np.linalg.qr(x[:, None], mode="complete")
        v = q[:, 1:]
        block = v.conj().T @ a @ v - lam * eye[1:, 1:]
        kx_ref = 1.0 / float(np.linalg.svd(block, compute_uv=False)[-1])
        overlap = abs(complex(np.vdot(y, x)))
        kl_ref = math.inf if overlap < 1e-14 else max(1.0, 1.0 / overlap)
        if not _close(kx[i], kx_ref, tol):
            return f"eigenpair {i}: kappa_x {kx[i]} vs independent {kx_ref}"
        if not (math.isinf(kl_ref) and math.isinf(table[i, 2])) \
                and not _close(table[i, 2], kl_ref, tol):
            return f"eigenpair {i}: kappa_lambda {table[i, 2]} vs independent {kl_ref}"
    return None


def check_cond(op, text: str) -> str | None:
    a = op.expect["matrix"]
    n = a.shape[0]
    what = f"cond {op.expect['family']} n={n}"
    try:
        table, footer = _condition_table(text, n)
    except ValueError as exc:
        return f"{what}: {exc}"
    if op.expect["spectrum"] is not None:
        reason = _check_normal(table, op.expect["spectrum"])
    else:
        reason = _check_sampled(a, table, op.expect["sample_seed"])
    if reason:
        return f"{what}: {reason}"
    kmax = float(table[:, 3].max())
    frob, opn = footer.get("kappa_max", [math.nan, math.nan])
    nf = float(np.linalg.norm(a))
    no = float(np.linalg.svd(a, compute_uv=False)[0])
    if not (_close(frob, kmax * nf, 1e-10) and _close(opn, kmax * no, 1e-10)):
        return f"{what}: kappa_max row {frob},{opn} != max kappa_x * ||A||"
    return None


def check_perturb(op, text: str) -> str | None:
    a = op.expect["matrix"]
    n = a.shape[0]
    what = f"perturb {op.expect['family']} n={n} eps={op.expect['eps']}"
    try:
        table, footer = _condition_table(text, n)
    except ValueError as exc:
        return f"{what}: {exc}"
    excluded = footer.get("excluded_trials", [math.nan])[0]
    if not 0 <= excluded < PERTURB_TRIALS:
        return f"{what}: {excluded} of {PERTURB_TRIALS} trials excluded"
    kl, shift = table[:, 2], table[:, 4]
    if np.any(shift > kl * (1.0 + SHIFT_SLACK)) or np.any(shift <= 0.0):
        i = int(np.argmax(shift / kl))
        return f"{what}: shift_ratio {shift[i]} breaks the first-order law (kappa_lambda {kl[i]})"
    if op.expect["spectrum"] is not None:
        reason = _check_normal(table, op.expect["spectrum"])
        if reason:
            return f"{what}: {reason}"
    return None


def check_optimize(op, text: str, trace_text: str) -> str | None:
    n, p, init = op.expect["n"], op.expect["p"], op.expect["init"]
    what = f"optimize --n {n} --p {p:g} --init {init}"
    header, rows = _rows(text)
    if header != ["re", "im"] or len(rows) != n:
        return f"{what}: expected {n} points"
    z = np.array([complex(float(r[0]), float(r[1])) for r in rows])
    gap = min_gap(z)
    if not np.all(np.isfinite(z)) or gap <= 0.0:
        return f"{what}: points are not finite and distinct"
    objective = p_norm(np.abs(z), p) / gap
    done = json.loads(trace_text.strip().splitlines()[-1])
    start = done["init_objective"]
    if init == "lattice":
        lattice = p_norm(np.abs(lattice_prefix(n)), p)  # minimum gap 1
        if not _close(start, lattice, REL_TOL):
            return f"{what}: start objective {start} != lattice S_p {lattice}"
    if not _close(done["objective"], objective, REL_TOL):
        return f"{what}: reported objective {done['objective']} != recomputed {objective}"
    if objective > start * (1.0 + 1e-12):
        return f"{what}: objective {objective} worse than the start {start}"
    return None


def check(op, stdout: str) -> str | None:
    """Reason the operation's output is wrong, or None."""
    if op.kind == "lattice":
        return check_lattice(op, op.files["output"])
    if op.kind == "optimize":
        return check_optimize(op, stdout, op.files["trace"].read_text(encoding="utf-8"))
    return {"reproduce": check_reproduce, "asymptotics": check_asymptotics,
            "cond": check_cond, "perturb": check_perturb}[op.kind](op, stdout)
