"""Run one invocation list against two source trees and compare the bytes.

    python3 scripts/same_bytes.py PARENT_SRC CHANGE_SRC [--declared LABEL ...] [--json PATH]

PARENT_SRC and CHANGE_SRC are the `src` directories of two checkouts.  Each
invocation runs cold, as `python -m eigencond ARGV` with PYTHONPATH set to
one tree, in a fresh directory that holds the input files.  The script
prints, per invocation, the exit codes and the sha256 of stdout, stderr and
every file the run wrote, then the invocations that differ.  --json writes
the same records as JSON.

A change that alters some outputs on purpose declares them: each --declared
takes one invocation's label, its environment settings and argv joined by
spaces as the listing prints them (`--declared "cond accent.mat"`).  The
exit status is 0 when exactly the declared invocations differ, and 1 when
an undeclared one differs, a declared one gave the same bytes, or a label
names no invocation (check_declared).

The invocation list is the `same_bytes` list of BENCH_38.json, followed by
EXTRA_INVOCATIONS.  The input files are generated from seeds (write_inputs),
so no binary file is committed; both trees read the same inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

from workloads import lattice_prefix, make_matrix, write_matrix  # noqa: E402

# Dense inputs beyond BENCH_38.json's list: normal matrices, whose kappa_x
# comes from the spectral gap, and non-normal ones large enough for the
# report to run its SVDs on several threads.
EXTRA_INVOCATIONS = [
    {"argv": ["cond", "norm40.mat"], "env": {}},
    {"argv": ["cond", "norm80.mat", "--output", "o.csv", "--manifest", "m.json"], "env": {}},
    {"argv": ["perturb", "norm40.mat", "--eps", "1e-6", "--trials", "20", "--seed", "4"],
     "env": {}},
    {"argv": ["cond", "gin80.mat"], "env": {}},
    {"argv": ["cond", "grc80.mat"], "env": {}},
    {"argv": ["cond", "span.csv", "--diag"], "env": {}},
    {"argv": ["asymptotics", "--p", "2", "--n-list", "2,3", "--file", "span.csv"], "env": {}},
    {"argv": ["optimize", "--n", "2", "--file", "huge.csv", "--max-iters", "3"], "env": {}},
]

TEXT_INPUTS = {
    "three.csv": b"re,im\n0,0\n1,0\n0,1\n",
    "dup.csv": b"re,im\n0,0\n1,0\n1,0\n2,0\n",
    "latin1.csv": b"re,im\n0.0,0.0\n1.0,0.0\xe9\n",
    "one.csv": b"re,im\n1,1\n",
    "sub.csv": b"re,im\n1e-320,0\n0,0\n",
    "huge.csv": b"re,im\n1e308,0\n-1e308,0\n",
    "span.csv": b"re,im\n1e308,0\n1e-300,0\n0,0\n",
    "bom.csv": b"\xef\xbb\xbfre,im\n0,0\n1,0\n",
    "short.mat": b"2\n1 0\n0 0\n0 0\n",
    "nan.mat": b"2\n1 0\n0 0\n0 0\nnan 0\n",
    "accent.mat": b"2\n1 0\n0 0\n0 0\n1 0\xe9\n",
}


def invocations() -> list[dict]:
    """BENCH_38.json's same-bytes list, then EXTRA_INVOCATIONS."""
    record = json.loads((ROOT / "BENCH_38.json").read_text(encoding="utf-8"))
    listed = [{"argv": inv["argv"], "env": inv["env"]}
              for inv in record["same_bytes"]["invocations"]]
    return listed + EXTRA_INVOCATIONS


def _points_csv(z) -> bytes:
    return ("re,im\n" + "".join(f"{v.real!r},{v.imag!r}\n" for v in z)).encode("ascii")


def write_inputs(directory: Path) -> None:
    """Every input file that an invocation names, generated from seeds."""
    for name, data in TEXT_INPUTS.items():
        (directory / name).write_bytes(data)
    dense = {"gin40.mat": ("ginibre", 40), "gin80.mat": ("ginibre", 80),
             "grc80.mat": ("grcar", 80), "norm40.mat": ("normal", 40),
             "norm80.mat": ("normal", 80)}
    for name, (family, n) in dense.items():
        write_matrix(directory / name, make_matrix(family, n, np.random.default_rng(n))[0])
    for name, a in {"one.mat": np.array([[2.0]]), "ident.mat": np.eye(2),
                    "diag012.mat": np.diag([0.0, 1.0, 2.0]),
                    "sub.mat": np.diag([1e-320, 0.0])}.items():
        write_matrix(directory / name, a.astype(complex))
    (directory / "lat40.csv").write_bytes(_points_csv(lattice_prefix(40)))
    rng = np.random.default_rng(5)
    (directory / "init5.csv").write_bytes(
        _points_csv(rng.standard_normal(5) + 1j * rng.standard_normal(5)))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_one(src: Path, inputs: Path, invocation: dict) -> dict:
    """Exit code and sha256 of stdout, stderr and each written file of one
    cold run in a fresh copy of the inputs."""
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as tmp:
        work = Path(tmp) / "w"
        shutil.copytree(inputs, work)
        before = {p.name: p.read_bytes() for p in work.iterdir()}
        env = {k: v for k, v in os.environ.items() if not k.startswith("EIGENCOND_")}
        env.update(invocation["env"], PYTHONPATH=str(Path(src).resolve()))
        proc = subprocess.run([sys.executable, "-m", "eigencond", *invocation["argv"]],
                              cwd=work, env=env, capture_output=True, timeout=600)
        files = {p.name: _sha256(p.read_bytes()) for p in sorted(work.iterdir())
                 if before.get(p.name) != p.read_bytes()}
    return {"code": proc.returncode, "out": _sha256(proc.stdout),
            "err": _sha256(proc.stderr), "files": files}


def label(invocation: dict) -> str:
    """The invocation as a shell line: its environment settings, then argv."""
    return " ".join([f"{k}={v}" for k, v in invocation["env"].items()] + invocation["argv"])


def check_declared(records, declared) -> list[str]:
    """Each way records break the declaration that exactly the invocations
    labelled in declared differ; empty when they keep it."""
    declared = set(declared)
    problems = [f"declared, but no invocation has this label: {d}"
                for d in sorted(declared - {label(r) for r in records})]
    for r in records:
        if not r["same"] and label(r) not in declared:
            problems.append(f"differs, but is not declared: {label(r)}")
        elif r["same"] and label(r) in declared:
            problems.append(f"declared, but gave the same bytes: {label(r)}")
    return problems


def compare(parent_src, change_src, listed=None, log=print) -> list[dict]:
    """One record per invocation: argv, env, both sides' results, and same."""
    records = []
    with tempfile.TemporaryDirectory(prefix="same_bytes_inputs_") as tmp:
        inputs = Path(tmp)
        write_inputs(inputs)
        for i, inv in enumerate(invocations() if listed is None else listed):
            parent = run_one(parent_src, inputs, inv)
            change = run_one(change_src, inputs, inv)
            rec = dict(inv, parent=parent, change=change, same=parent == change)
            records.append(rec)
            if log is not None:
                log(f"[{i:3d}] {'same  ' if rec['same'] else 'DIFFER'} "
                    f"code {parent['code']}/{change['code']} out {parent['out'][:16]}"
                    f"{'' if parent['out'] == change['out'] else '/' + change['out'][:16]}  "
                    f"{label(inv)}")
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--declared", action="append", default=[], metavar="LABEL",
                        help="an invocation whose output the change alters on purpose")
    parser.add_argument("--json", type=Path, help="write every record to this file")
    ns = parser.parse_args(argv)
    records = compare(ns.parent_src, ns.change_src)
    differ = [r for r in records if not r["same"]]
    print(f"\n{len(records) - len(differ)} of {len(records)} invocations identical; "
          f"{len(differ)} differ:")
    for r in differ:
        parts = [k for k in ("code", "out", "err", "files") if r["parent"][k] != r["change"][k]]
        print(f"  {label(r)}: {', '.join(parts)}")
    if ns.json:
        ns.json.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    problems = check_declared(records, ns.declared)
    for problem in problems:
        print(f"error: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
