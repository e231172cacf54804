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

The invocation list is INVOCATIONS of tests/corpus.py, one label per line,
and the input files are the ones corpus.write generates from its bytes and
seeds, so no binary file is committed; both trees read the same inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import corpus  # noqa: E402


def invocation(line: str) -> dict:
    """The invocation whose label is line."""
    words = line.split()
    env = dict(w.split("=", 1) for w in
               itertools.takewhile(lambda w: "=" in w and not w.startswith("-"), words))
    return {"argv": words[len(env):], "env": env}


def invocations() -> list[dict]:
    """corpus.INVOCATIONS, in order."""
    return [invocation(line) for line in corpus.INVOCATIONS]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_one(src: Path, inputs: Path, inv: dict) -> dict:
    """Exit code and sha256 of stdout, stderr and each written file of one
    cold run in a fresh copy of the inputs."""
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as tmp:
        work = Path(tmp) / "w"
        shutil.copytree(inputs, work)
        before = {p.name: p.read_bytes() for p in work.iterdir()}
        env = {k: v for k, v in os.environ.items() if not k.startswith("EIGENCOND_")}
        env.update(inv["env"], PYTHONPATH=str(Path(src).resolve()))
        proc = subprocess.run([sys.executable, "-m", "eigencond", *inv["argv"]],
                              cwd=work, env=env, capture_output=True, timeout=600)
        files = {p.name: _sha256(p.read_bytes()) for p in sorted(work.iterdir())
                 if before.get(p.name) != p.read_bytes()}
    return {"code": proc.returncode, "out": _sha256(proc.stdout),
            "err": _sha256(proc.stderr), "files": files}


def label(inv: dict) -> str:
    """The invocation as a shell line: its environment settings, then argv."""
    return " ".join([f"{k}={v}" for k, v in inv["env"].items()] + inv["argv"])


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
        corpus.write(inputs)
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
