"""Command-line interface: one executable, subcommand per operation.

Subcommands: lattice, cond, perturb, asymptotics, optimize, reproduce.
All CSV output carries headers and uses shortest round-trip float formatting
(_csv); every file goes through _write, and every run serializes one JSON
manifest (_emit) to stderr and optionally to a file.  Manifests and traces
are strict JSON: a non-finite float is written as the string "inf", "-inf"
or "nan".  Randomized subcommands take --seed, with the EIGENCOND_SEED
environment variable as fallback; a fixed seed reproduces output bit for bit.

Exit codes: 0 success, 1 usage error (an unwritable output path included),
2 numerical ill-posedness.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .conditioning import (condition_report, condition_report_diagonal,
                           perturbation_experiment)
from .errors import DuplicatePointsError, NumericalError, UsageError
from .extremal import (_growth_scale, convergence_study, lattice_prefix_functionals,
                       proposition_constant)
from .lattice import (CELL_AREA, Configuration, enumerate_lattice_in_disk,
                      first_n_sites)
from .linalg import pinned_blas_threads, read_matrix
from .optimizer import OptimizerConfig, optimize

SEED_ENV_VAR = "EIGENCOND_SEED"

# Most lattice points one invocation may build (lattice --n/--r,
# asymptotics --n-list).  first_n_sites peaks at 48 bytes per site under
# tracemalloc; a cold lattice --n at this cap peaks at 214 MB RSS.
MAX_POINTS = 4_000_000
_CSV_CHUNK_ROWS = 16_384  # lattice CSV rows formatted at once (about 1 MB of text)

# Largest reproduce --n.  reproduce builds no sites: lattice_prefix_sums
# takes O(sqrt(n)) time and memory, about 5 ms at this cap.
MAX_REPRODUCE_N = 10 ** 9

# Largest optimize --n.  The descent holds several n x n arrays at once: its
# tracemalloc peak is 65 n^2 bytes (260 MB at n = 2000).
MAX_OPTIMIZE_POINTS = 2_000


def _fmt(x) -> str:
    """Shortest decimal that round-trips the float exactly."""
    return repr(float(x))


def _json_ready(value):
    """value with every non-finite float replaced by the string "inf",
    "-inf" or "nan", which strict JSON parsers accept."""
    if isinstance(value, float):
        return value if math.isfinite(value) else _fmt(value)
    if isinstance(value, dict):
        return {key: _json_ready(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(item) for item in value]
    return value


def _to_json(value, **kwargs) -> str:
    """Strict JSON: non-finite floats are written as strings (_json_ready)."""
    return json.dumps(_json_ready(value), allow_nan=False, **kwargs)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the declared contract is exit 1."""

    def error(self, message):
        raise UsageError(message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _check_point_count(count: float, flag: str, limit: int = MAX_POINTS) -> None:
    """Reject a request for more than limit points before building any."""
    if count > limit:
        raise UsageError(f"{flag} asks for about {count:.4g} points; "
                         f"the limit is {limit}")


def _n_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected comma-separated integers") from exc
    if not values:
        raise argparse.ArgumentTypeError("expected at least one value")
    return values


def build_parser() -> _Parser:
    parser = _Parser(prog="eigencond",
                     description="Eigenvalue/eigenvector conditioning and "
                                 "extremal spectral configurations.")
    parser.add_argument("--version", action="version", version=f"eigencond {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, seeded=False):
        p.add_argument("--output", metavar="PATH", help="write CSV here instead of stdout")
        p.add_argument("--manifest", metavar="PATH", help="also write the run manifest here")
        if seeded:
            p.add_argument("--seed", type=_nonnegative_int, default=None,
                           help=f"RNG seed (default: ${SEED_ENV_VAR} or 0)")

    p = sub.add_parser("lattice", help="enumerate triangular-lattice points")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=_positive_int,
                       help=f"first n points by modulus (n <= {MAX_POINTS})")
    group.add_argument("--r", type=float,
                       help="all points in the disk of radius r "
                            f"(about pi r^2 / (sqrt(3)/2) <= {MAX_POINTS} points)")
    p.add_argument("--open", action="store_true", dest="open_disk",
                   help="with --r: strict inequality |z| < r")
    common(p)
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("cond", help="condition-number report for a matrix")
    p.add_argument("matrix", nargs="?", help="matrix file (text format: n, then n*n 're im' lines)")
    p.add_argument("--diag", metavar="CSV",
                   help="treat a configuration CSV as a diagonal matrix (fast path)")
    common(p)
    p.set_defaults(func=_cmd_cond)

    p = sub.add_parser("perturb", help="empirical first-order perturbation ratios")
    p.add_argument("matrix", nargs="?", help="matrix file")
    p.add_argument("--diag", metavar="CSV", help="diagonal matrix from a configuration CSV")
    p.add_argument("--eps", type=float, required=True, help="relative perturbation size")
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--norm", choices=("frob", "op"), default="frob")
    common(p, seeded=True)
    p.set_defaults(func=_cmd_perturb)

    p = sub.add_parser("asymptotics", help="convergence of S_p toward its leading constant")
    p.add_argument("--p", type=float, required=True, help="exponent (inf allowed)")
    p.add_argument("--n-list", type=_n_list, required=True, metavar="N1,N2,...",
                   help="strictly increasing configuration sizes")
    p.add_argument("--generator", choices=("lattice", "file"), default="lattice")
    p.add_argument("--file", metavar="CSV",
                   help="with --generator file: configuration whose first n points are used")
    common(p)
    p.set_defaults(func=_cmd_asymptotics)

    p = sub.add_parser("optimize", help="search for low separation-functional configurations")
    p.add_argument("--n", type=_positive_int, required=True,
                   help=f"number of points (n <= {MAX_OPTIMIZE_POINTS})")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--restarts", type=_positive_int, default=1)
    p.add_argument("--init", choices=("lattice", "random", "file"), default="lattice")
    p.add_argument("--file", metavar="CSV", help="with --init file: starting configuration")
    p.add_argument("--max-iters", type=_positive_int, default=300)
    p.add_argument("--trace", metavar="PATH", help="write the JSON-lines objective trace here")
    common(p, seeded=True)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("reproduce", help="headline asymptotic constants at one n")
    p.add_argument("--n", type=_positive_int, required=True,
                   help=f"configuration size (100 <= n <= {MAX_REPRODUCE_N})")
    common(p)
    p.set_defaults(func=_cmd_reproduce)

    return parser


@functools.cache
def _parser() -> _Parser:
    """build_parser(), built once per process: building it costs more than a
    whole reproduce run, and parsing leaves it unchanged, so main reuses it."""
    return build_parser()


def _resolve_seed(ns) -> int:
    seed = getattr(ns, "seed", None)
    if seed is not None:
        return seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is None:
        return 0
    try:
        seed = int(env)
    except ValueError as exc:
        raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    if seed < 0:
        raise UsageError(f"{SEED_ENV_VAR} must be nonnegative")
    return seed


def read_configuration_csv(path) -> Configuration:
    """Read a point configuration from CSV with 're' and 'im' header columns.

    Accepts both the two-column optimizer output and the six-column lattice
    output.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            rows = [(reader.line_num, row) for row in reader
                    if row and any(cell.strip() for cell in row)]
    except OSError as exc:
        raise UsageError(f"cannot read configuration file {path}: {exc}") from exc
    if not rows:
        raise UsageError(f"{path}: empty configuration file")
    header = [cell.strip().lower() for cell in rows[0][1]]
    if "re" not in header or "im" not in header:
        raise UsageError(f"{path}: header must contain 're' and 'im' columns")
    ire, iim = header.index("re"), header.index("im")
    points = []
    for lineno, row in rows[1:]:
        try:
            x, y = float(row[ire]), float(row[iim])
        except (ValueError, IndexError) as exc:
            raise UsageError(f"{path}: line {lineno}: malformed point row") from exc
        if not (math.isfinite(x) and math.isfinite(y)):
            raise UsageError(f"{path}: line {lineno}: point is not finite")
        points.append(complex(x, y))
    if not points:
        raise UsageError(f"{path}: no points")
    return Configuration(points)


def _require_two_eigenvalues(n: int) -> None:
    """cond and perturb need a second eigenvalue: n < 2 is bad input (exit 1)."""
    if n < 2:
        raise UsageError("condition reports need n >= 2")


def _load_matrix_or_diag(ns) -> np.ndarray:
    if (ns.matrix is None) == (ns.diag is None):
        raise UsageError("provide exactly one of: a matrix file, or --diag CSV")
    if ns.matrix is not None:
        try:
            matrix = read_matrix(ns.matrix)
        except OSError as exc:
            raise UsageError(f"cannot read matrix file {ns.matrix}: {exc}") from exc
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    else:
        matrix = np.diag(read_configuration_csv(ns.diag).points)
    _require_two_eigenvalues(matrix.shape[0])
    return matrix


def _write(path, chunks) -> None:
    """Write text chunks to path; a path that cannot be written is a usage error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _csv(header: str, rows) -> str:
    """CSV text: the header line, then one line per row.  A float cell
    (np.float64 included) is written by _fmt, any other cell by str."""
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(cell) if isinstance(cell, float) else str(cell)
                              for cell in row))
    return "\n".join(lines) + "\n"


def _emit(ns, subcommand: str, parameters: dict, text, seed: int | None = None,
          environment: dict | None = None) -> None:
    """Write the primary CSV (a string, or an iterable of text chunks) and the
    run manifest: one JSON line on stderr, and the same line in --manifest.

    The manifest records one invocation; rerunning it reproduces the primary
    outputs.  environment is set by runs of the dense engine (cond on a matrix
    file, perturb): blas_threads maps each OpenBLAS library to the thread count
    the engine ran it at, null where the library exports no thread control.
    """
    chunks = [text] if isinstance(text, str) else text
    if ns.output:
        _write(ns.output, chunks)
    else:
        sys.stdout.writelines(chunks)
    outputs = [ns.output or "-"]
    if getattr(ns, "trace", None):
        outputs.append(ns.trace)
    manifest = _to_json({"subcommand": subcommand, "parameters": parameters, "seed": seed,
                         "tool_version": __version__, "output_paths": outputs,
                         "environment": environment}, sort_keys=True)
    print(manifest, file=sys.stderr)
    if ns.manifest:
        _write(ns.manifest, [manifest, "\n"])


def _lattice_csv(sites):
    """The lattice CSV as text chunks of at most _CSV_CHUNK_ROWS rows."""
    yield "index,a,b,re,im,modulus\n"
    for lo in range(0, len(sites), _CSV_CHUNK_ROWS):
        chunk = slice(lo, lo + _CSV_CHUNK_ROWS)
        # tolist() yields Python numbers: !r formats floats as _fmt does, and
        # the modulus is Python's complex abs (np.abs may differ in the last bit)
        yield "".join(f"{idx},{a},{b},{w.real!r},{w.imag!r},{abs(w)!r}\n"
                      for idx, a, b, w in zip(range(lo, lo + _CSV_CHUNK_ROWS),
                                              sites.a[chunk].tolist(), sites.b[chunk].tolist(),
                                              sites.z[chunk].tolist()))


def _cmd_lattice(ns) -> None:
    if ns.n is not None:
        _check_point_count(ns.n, "--n")
        sites = first_n_sites(ns.n)
        params = {"n": ns.n}
    else:
        if not math.isfinite(ns.r) or ns.r < 0.0:
            raise UsageError("--r must be finite and nonnegative")
        _check_point_count(math.pi * ns.r * ns.r / CELL_AREA, "--r")
        sites = enumerate_lattice_in_disk(ns.r, closed=not ns.open_disk)
        params = {"r": ns.r, "closed": not ns.open_disk}
    _emit(ns, "lattice", params, _lattice_csv(sites))


def _cmd_cond(ns) -> None:
    if ns.diag is not None and ns.matrix is None:
        config = read_configuration_csv(ns.diag)
        _require_two_eigenvalues(config.n)
        report = condition_report_diagonal(config)
        params, environment = {"diag": ns.diag}, None
    else:
        report = condition_report(_load_matrix_or_diag(ns))
        params = {"matrix": ns.matrix}
        environment = {"blas_threads": pinned_blas_threads()}
    rows = [(row.eigenvalue.real, row.eigenvalue.imag, row.kappa_lambda, row.kappa_x)
            for row in report.per_eigenpair]
    rows.append(("kappa_max", report.kappa_max_frob, report.kappa_max_op))
    _emit(ns, "cond", params, _csv("lambda_re,lambda_im,kappa_lambda,kappa_x", rows),
          environment=environment)


def _cmd_perturb(ns) -> None:
    matrix = _load_matrix_or_diag(ns)
    seed = _resolve_seed(ns)
    if ns.eps <= 0.0 or not math.isfinite(ns.eps):
        raise UsageError("--eps must be positive and finite")
    result = perturbation_experiment(matrix, ns.eps, trials=ns.trials,
                                     norm_kind=ns.norm, seed=seed)
    rows = [(row.eigenvalue.real, row.eigenvalue.imag, row.kappa_lambda, row.kappa_x,
             row.shift_ratio, row.angle_ratio) for row in result.rows]
    rows.append(("excluded_trials", result.excluded_trials))
    params = {"matrix": ns.matrix, "diag": ns.diag, "eps": ns.eps,
              "trials": ns.trials, "norm": ns.norm}
    environment = {"blas_threads": pinned_blas_threads()}
    _emit(ns, "perturb", params,
          _csv("lambda_re,lambda_im,kappa_lambda,kappa_x,shift_ratio,angle_ratio", rows),
          seed, environment)


def _cmd_asymptotics(ns) -> None:
    if ns.generator == "file":
        if not ns.file:
            raise UsageError("--generator file requires --file")
        pool = read_configuration_csv(ns.file).points

        def generator(n: int) -> Configuration:
            if n > pool.size:
                raise UsageError(f"configuration file has {pool.size} points, need {n}")
            config = Configuration(pool[:n])
            if n > 1 and config.min_separation == 0.0:
                raise DuplicatePointsError(
                    f"{ns.file}: the first {n} points are not pairwise distinct")
            return config
    else:
        _check_point_count(max(ns.n_list), "--n-list")
        generator = None
    try:
        rows = convergence_study(ns.p, ns.n_list, generator)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    params = {"p": ns.p, "n_list": ns.n_list, "generator": ns.generator,
              "file": ns.file}
    _emit(ns, "asymptotics", params,
          _csv("n,raw,scale,ratio,target,margin",
               ((row.n, row.raw, row.scale, row.ratio, row.target, row.ratio / row.target)
                for row in rows)))


def _cmd_optimize(ns) -> None:
    _check_point_count(ns.n, "--n", MAX_OPTIMIZE_POINTS)
    seed = _resolve_seed(ns)
    init_points = None
    if ns.init == "file":
        if not ns.file:
            raise UsageError("--init file requires --file")
        init_points = tuple(read_configuration_csv(ns.file).points)
    try:
        cfg = OptimizerConfig(n=ns.n, p=ns.p, restarts=ns.restarts,
                              max_iters=ns.max_iters, seed=seed, init=ns.init,
                              init_points=init_points)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    result = optimize(cfg)
    if ns.trace:
        records = [{"iteration": iteration, "objective": objective}
                   for iteration, objective in result.trace]
        records.append({"event": "done", "objective": result.objective,
                        "init_objective": result.init_objective})
        _write(ns.trace, (_to_json(record) + "\n" for record in records))
    params = {"n": ns.n, "p": ns.p, "restarts": ns.restarts, "init": ns.init,
              "file": ns.file, "max_iters": ns.max_iters}
    _emit(ns, "optimize", params,
          _csv("re,im", ((z.real, z.imag) for z in result.best.points)), seed)


def reproduce_rows(n: int) -> list[dict]:
    """Measured kappa_max growth ratios against the leading-order constants.

    For Diag(z) kappa_max_frob and kappa_max_op are the separation
    functionals S_2 and S_inf.  On the first-n lattice prefix both come from
    exact integer shell sums (lattice_prefix_functionals), with no site
    enumerated, and are normalized by their growth scales n and sqrt(n).
    """
    if n < 100:
        raise ValueError("reproduce needs n >= 100 (asymptotic regime)")
    s_2, s_inf = lattice_prefix_functionals(n)
    rows = []
    for label, p, value in (("frobenius", 2.0, s_2), ("operator", math.inf, s_inf)):
        target = proposition_constant(p)
        ratio = value / _growth_scale(n, p)
        rows.append({"norm": label, "n": n, "measured_ratio": ratio,
                     "target": target, "rel_deviation": abs(ratio - target) / target})
    return rows


def _cmd_reproduce(ns) -> None:
    if ns.n < 100:
        raise UsageError("reproduce needs --n >= 100")
    _check_point_count(ns.n, "--n", MAX_REPRODUCE_N)
    rows = reproduce_rows(ns.n)
    _emit(ns, "reproduce", {"n": ns.n},
          _csv("norm,n,measured_ratio,target,rel_deviation", (row.values() for row in rows)))


def main(argv=None) -> int:
    parser = _parser()
    try:
        ns = parser.parse_args(argv)
        ns.func(ns)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, ValueError) as exc:
        # library-level precondition violations are mathematical, not usage
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
