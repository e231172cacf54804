"""Tests of the benchmark itself: seeded inputs, oracles and span accounting.

    python -m pytest benchmarks
"""

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

import eigencond
import oracles
import run
import workloads
from eigencond import cli
from spans import Tracer, self_times


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    return out.getvalue()


def _fingerprint(ops, workdir: Path):
    """Everything the program receives: argv with the directory masked, file bytes."""
    seen = []
    for op in ops:
        argv = [a.replace(str(workdir), "<dir>") for a in op.argv]
        files = [Path(a).read_bytes() for a in op.argv if a.endswith(".mat")]
        seen.append((argv, files))
    return seen


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_repeat_for_a_seed_and_change_with_it(workload, tmp_path):
    def inputs(seed, name):
        workdir = tmp_path / name
        return _fingerprint(workloads.build(workload, seed, 3, workdir), workdir)

    first = inputs(7, "a")
    assert inputs(7, "b") == first
    assert inputs(8, "c") != first


def _op(kind, argv, **expect):
    return workloads.Op(kind, argv, 1, expect=expect)


def _replace_field(text, row, column, value):
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[column] = repr(value)
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("family", ["ginibre", "normal", "grcar"])
def test_cond_oracle_rejects_kappa_x_off_by_1e_6(family, tmp_path):
    a, z = workloads.make_matrix(family, 40, np.random.default_rng(3))
    path = tmp_path / "a.mat"
    workloads.write_matrix(path, a)
    op = _op("cond", ["cond", str(path)], family=family, matrix=a, spectrum=z,
             sample_seed=5)
    text = run_cli(op.argv)
    assert oracles.check(op, text) is None
    kx = [float(line.split(",")[3]) for line in text.splitlines()[1:-1]]
    row = 1 + int(np.argmax(kx))  # the eigenpair that sets kappa_max
    assert oracles.check(op, _replace_field(text, row, 3, kx[row - 1] * (1 + 1e-6)))


def test_lattice_oracle_rejects_a_dropped_row(tmp_path):
    for flag, value, expect in (("--r", "20.5", {"r": 20.5}), ("--n", "500", {"n": 500})):
        out = tmp_path / f"lattice{flag}.csv"
        op = workloads.Op("lattice", ["lattice", flag, value, "--output", str(out)], 1,
                          files={"output": out}, expect=expect)
        run_cli(op.argv)
        assert oracles.check_lattice(op, out) is None
        lines = out.read_text().splitlines()
        out.write_text("\n".join(lines[:100] + lines[101:]) + "\n")
        assert oracles.check_lattice(op, out)


def test_optimize_oracle_rejects_a_worse_objective(tmp_path):
    trace = tmp_path / "trace.jsonl"
    op = workloads.Op("optimize", ["optimize", "--n", "12", "--p", "2", "--init", "lattice",
                                   "--restarts", "1", "--seed", "4", "--trace", str(trace)],
                      1, files={"trace": trace}, expect={"n": 12, "p": 2.0, "init": "lattice"})
    text = run_cli(op.argv)
    assert oracles.check(op, text) is None
    lines = text.splitlines()
    x0, y0 = (float(v) for v in lines[1].split(","))
    lines[2] = f"{x0 + 0.05!r},{y0!r}"  # crowd two points: the gap and S_p worsen
    worse = "\n".join(lines) + "\n"
    # report the worse objective consistently, so only the start comparison fails
    z = np.array([complex(*map(float, line.split(","))) for line in lines[1:]])
    done = json.loads(trace.read_text().splitlines()[-1])
    done["objective"] = oracles.p_norm(np.abs(z), 2.0) / oracles.min_gap(z)
    trace.write_text(json.dumps(done) + "\n")
    assert "worse than the start" in oracles.check(op, worse)


def test_reproduce_and_asymptotics_oracles_accept_the_cli():
    op = _op("reproduce", ["reproduce", "--n", "5000"], n=5000)
    text = run_cli(op.argv)
    assert oracles.check(op, text) is None
    assert oracles.check(op, text.replace("5000,0.37", "5000,0.38"))
    op = _op("asymptotics", ["asymptotics", "--p", "inf", "--n-list", "1000,10000,100000"],
             p=math.inf)
    assert oracles.check(op, run_cli(op.argv)) is None


def test_self_time_on_a_synthetic_span_tree():
    # root [0,10] has children A [1,4] (with grandchild [2,3]), B [5,9] and
    # C [8,11], which overlaps B and outlasts root
    start = [0.0, 1.0, 2.0, 5.0, 8.0]
    end = [10.0, 4.0, 3.0, 9.0, 11.0]
    parent = [-1, 0, 1, 0, 0]
    assert self_times(start, end, parent) == pytest.approx([2.0, 2.0, 1.0, 4.0, 3.0])


def test_tracer_follows_rebound_names_and_uninstalls():
    original = eigencond.conditioning.nearest_neighbor_distances
    tracer = Tracer()
    tracer.install()
    try:
        run_cli(["reproduce", "--n", "200"])
    finally:
        tracer.uninstall()
    spans = tracer.summary()
    assert eigencond.conditioning.nearest_neighbor_distances is original
    assert spans["lattice.nearest_neighbor_distances"]["calls"] == 1
    assert spans["lattice.first_n_lattice_points"]["calls"] == 1
    assert tracer.counts["lattice.nnd_points"] == 200
    main = spans["cli.main"]
    assert 0.0 < main["self_s"] < main["busy_s"]


def test_metric_names_match_benchmark_json():
    declared = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    ops = [_op("reproduce", ["reproduce", "--n", "200"], n=200)]
    per_layer, results, reasons, _ = run.per_layer(cli, ops, "reproduce", 0)
    assert not reasons
    assert set(per_layer) == {m["name"] for m in declared["per_layer"]}
    end_to_end, _ = run.end_to_end(results, [0.5], 100.0)
    assert set(end_to_end) == {m["name"] for m in declared["end_to_end"]}
    units = {m["name"]: m["unit"] for m in declared["per_layer"] + declared["end_to_end"]}
    assert all(units[k] == unit for k, (_, unit) in {**per_layer, **end_to_end}.items())


def test_tracer_skips_a_deleted_private_kernel(monkeypatch):
    monkeypatch.delattr(eigencond.optimizer, "_polish")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert "optimizer._polish" not in tracer.names
    assert "optimizer._soft_eval" in tracer.names
