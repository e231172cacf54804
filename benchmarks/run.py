#!/usr/bin/env python3
"""End-to-end benchmark of the eigencond CLI.

    python3 benchmarks/run.py --workload reproduce --seed 1 --seconds 15 --trace 0
    python3 benchmarks/run.py --workload all

One client in one process calls `eigencond.cli.main(argv)` and sends its
next command only after the previous one returns (a closed loop).  The
inputs come from --seed; the program sees only the generated files and
argv.  Every output is checked by an independent oracle after the timed
phase.  The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics of a traced run with --trace 1.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import oracles
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
COLD_STARTS = 5

# Per-layer metrics read straight off the span summary: <module>.<function>.<stat>
SPAN_METRICS = (
    "lattice.first_n_lattice_points.calls", "lattice.first_n_lattice_points.busy_s",
    "lattice.first_n_sites.busy_s", "lattice.enumerate_lattice_in_disk.busy_s",
    "lattice.nearest_neighbor_distances.calls", "lattice.nearest_neighbor_distances.busy_s",
    "lattice.nearest_neighbor_distances.self_s",
    "linalg.schur.calls", "linalg.schur.busy_s", "linalg.read_matrix.busy_s",
    "linalg._svd_eigenpair.busy_s",
    "conditioning.condition_report.calls", "conditioning.condition_report.busy_s",
    "conditioning.condition_report.self_s", "conditioning._kappa_x_from_vector.busy_s",
    "conditioning.perturbation_experiment.busy_s",
    "conditioning.perturbation_experiment.self_s",
    "conditioning.condition_report_diagonal.busy_s",
    "conditioning.condition_report_diagonal.self_s",
    "extremal.convergence_study.busy_s", "extremal.convergence_study.self_s",
    "extremal.modulus_p_norm.calls", "extremal.modulus_p_norm.busy_s",
    "optimizer.optimize.busy_s", "optimizer._descend.busy_s", "optimizer._polish.busy_s",
    "optimizer._polish.self_s", "optimizer._soft_eval.calls", "optimizer._soft_eval.busy_s",
    "cli.main.busy_s", "cli.main.self_s",
)
SPAN_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s"}


def _import_program():
    if not (SRC / "eigencond" / "__init__.py").is_file():
        print(f"error: no eigencond package under {SRC}; run from a checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import eigencond.cli
    return eigencond.cli


def blas_threads() -> int:
    """Threads of the OpenBLAS loaded by numpy (0 when it cannot be asked)."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return 0
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return 0


def fingerprint() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "nproc": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def _program_env(**extra) -> dict:
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cold_starts(count: int) -> list[float]:
    """Wall times of `python -m eigencond --version` in fresh interpreters."""
    argv = [sys.executable, "-m", "eigencond", "--version"]
    env = _program_env()
    subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, check=True)  # writes .pyc
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, check=True)
        times.append(time.perf_counter() - t0)
    return times


def run_ops(cli, ops) -> list[dict]:
    """The closed loop: one invocation at a time, each timed on its own."""
    results = []
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = cli.main(op.argv)
            except Exception:  # a crash is a failed invocation, not a dead run
                rc = -1
                err.write(traceback.format_exc())
            t1 = time.perf_counter()
        results.append({"op": op, "rc": rc, "stdout": out.getvalue(),
                        "stderr": err.getvalue(), "t0": t0, "t1": t1})
    return results


def check_results(results) -> list[str]:
    """Mark each result ok or not; return the failure reasons."""
    reasons = []
    for res in results:
        op = res["op"]
        if res["rc"] != 0:
            reason = f"{' '.join(op.argv[:3])}: exit {res['rc']}: {res['stderr'].strip()[-300:]}"
        else:
            try:
                reason = oracles.check(op, res["stdout"])
            except Exception as exc:  # unparsable output is a wrong output
                reason = f"{' '.join(op.argv[:3])}: oracle error {exc!r}"
        res["ok"] = reason is None
        if reason:
            reasons.append(reason)
    return reasons


def output_bytes(results) -> int:
    return sum(len(r["stdout"].encode()) + sum(p.stat().st_size for p in r["op"].files.values()
                                               if p.exists())
               for r in results)


def tail(latencies):
    """Latency at the highest percentile with at least 10 samples beyond it."""
    s = sorted(latencies)
    k = len(s) - 11
    if k < 0:  # fewer than 11 samples: report the maximum
        return s[-1], 100.0, len(s)
    return s[k], 100.0 * (k + 1) / len(s), len(s)


def busy(results) -> float:
    """Time spent inside the CLI: the sum of the invocation latencies."""
    return sum(r["t1"] - r["t0"] for r in results)


def end_to_end(results, setup, peak_rss_mb) -> tuple[dict, str]:
    ok = [r for r in results if r["ok"]]
    lat = [r["t1"] - r["t0"] for r in results]
    t_value, t_pct, t_count = tail(lat)
    metrics = {
        "items_per_s": (sum(r["op"].items for r in ok) / busy(results), "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (t_value, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    error_rate = 1.0 - len(ok) / len(results)
    note = (f"op_tail_s is p{t_pct:.1f} of {t_count} invocations; "
            f"error_rate {error_rate} ratio ({len(results) - len(ok)}/{len(results)}); "
            f"setup_s is the median of {len(setup)} cold starts")
    return metrics, note


def _blas_child_pass(workload: str, seed: int, threads: str | None) -> float:
    """Untraced wall time of one pass in a fresh process, optionally 1 BLAS thread."""
    extra = {} if threads is None else {"OPENBLAS_NUM_THREADS": threads}
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload",
                           workload, "--seed", str(seed), "--one-pass"],
                          env=_program_env(**extra), cwd=ROOT, capture_output=True,
                          text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"BLAS probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["wall_s"]


def per_layer(cli, ops, workload: str, seed: int):
    """Each operation once untraced and once traced, in alternating order.

    Adjacent runs of the same operation see the same machine state, so the
    overhead ratio does not pick up drift in machine speed or first-call
    costs.  Returns the per-layer metrics, every result, the failure reasons
    and a one-line breakdown of self time.
    """
    from spans import SPANS, Tracer

    tracer = Tracer()
    plain, traced, reasons = [], [], []
    for i, op in enumerate(ops):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
            try:
                res = run_ops(cli, [op])
            finally:
                tracer.uninstall()
            reasons += check_results(res)  # before the other run rewrites output files
            (traced if with_trace else plain).extend(res)
    spans = tracer.summary()
    counts = tracer.counts

    def stat(span, key):
        return spans.get(span, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    def module_self(layer):
        return sum(v["self_s"] for k, v in spans.items() if k.startswith(layer + "."))

    speedup = 0.0
    if workload == "dense_cond":
        speedup = ratio(_blas_child_pass(workload, seed, None),
                        _blas_child_pass(workload, seed, "1"))
    values = {}
    for name in SPAN_METRICS:
        span, key = name.rsplit(".", 1)
        values[name] = (stat(span, key), SPAN_UNITS[key])
    eigenpairs = counts["conditioning.eigenpairs"]
    trials = counts["conditioning.trials"]
    values.update({
        "lattice.sites_per_s": (ratio(counts["lattice.sites"],
                                      stat("lattice.enumerate_lattice_in_disk", "busy_s")), "1/s"),
        "lattice.nnd_points": (counts["lattice.nnd_points"], "count"),
        "linalg.read_matrix.bytes": (counts["linalg.read_matrix.bytes"], "B"),
        "linalg.blas_threads": (blas_threads(), "count"),
        "linalg.blas1_speedup": (speedup, "ratio"),
        "conditioning.eigenpairs": (eigenpairs, "count"),
        "conditioning.per_eigenpair_ms": (
            1e3 * ratio(stat("conditioning.condition_report", "busy_s"), eigenpairs), "ms"),
        "conditioning.perturb_trial_yield": (
            ratio(trials - counts["conditioning.excluded_trials"], trials), "ratio"),
        "optimizer.descent_iters": (counts["optimizer.descent_iters"], "count"),
        "optimizer.line_search_yield": (
            ratio(counts["optimizer.grad_evals"], counts["optimizer.value_evals"]), "ratio"),
        "cli.output_bytes": (output_bytes(traced), "B"),
        "trace.overhead_ratio": (ratio(busy(traced), busy(plain)), "ratio"),
    })
    values.update({f"{layer}.self_s": (module_self(layer), "s") for layer in SPANS})
    top = sorted(spans.items(), key=lambda kv: -kv[1]["self_s"])[:8]
    total = busy(traced)
    breakdown = "; ".join(f"{name} {v['self_s']:.3f}s ({100 * v['self_s'] / total:.0f}%)"
                          for name, v in top)
    return values, plain + traced, reasons, f"top self time of {total:.2f}s traced: {breakdown}"


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def run_all(args) -> int:
    """Every workload in its own process; prints each one's report and a table."""
    here = str(Path(__file__).resolve())
    rows, status = [], 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, here, "--workload", name, "--seed",
                               str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], text=True, capture_output=True)
        sys.stdout.write(f"== {name}\n{proc.stdout}")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append((name, result))
    if args.trace == 0:
        names = ["items_per_s", "op_p50_s", "op_tail_s", "error_rate", "setup_s", "peak_rss_mb"]
        print("workload".ljust(14) + "".join(n.rjust(14) for n in names))
        for name, result in rows:
            m = {k: v["value"] for k, v in result["metrics"].items()}
            m["error_rate"] = result["failed"] / result["attempted"]
            print(name.ljust(14) + "".join(f"{m[n]:14.5g}" for n in names))
        print("units: 1/s, s, s, ratio, s, MB")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--one-pass", action="store_true",
                        help="internal: time one untraced pass (the BLAS-thread probe)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    cli = _import_program()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        if args.one_pass:
            ops = workloads.build(args.workload, args.seed, 1, workdir)
            results = run_ops(cli, ops)
            reasons = check_results(results)
            print(json.dumps({"wall_s": busy(results), "failed": len(reasons)}))
            return 1 if reasons else 0
        print("env: " + json.dumps(fingerprint(), sort_keys=True))
        passes = workloads.passes_for(args.workload, args.seconds)
        if args.trace == 1:
            passes = max(1, passes // 2)  # run once untraced and once traced
        if args.trace == 0:
            setup = cold_starts(COLD_STARTS)
            ops = workloads.build(args.workload, args.seed, passes, workdir)
            results = run_ops(cli, ops)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            reasons = check_results(results)
            metrics, note = end_to_end(results, setup, peak_rss_mb)
        else:
            ops = workloads.build(args.workload, args.seed, passes, workdir)
            metrics, results, reasons, note = per_layer(cli, ops, args.workload, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for reason in reasons:
        print(f"FAILED {reason}")
    print(f"{args.workload}: {len(results)} invocations in {passes} passes; {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:>16.6g} {unit}")
    emit(not reasons, len(results), len(reasons), metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
