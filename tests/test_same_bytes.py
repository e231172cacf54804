"""scripts/same_bytes.py on five invocations, with the tree against itself:
every cold run must give the same bytes twice, which catches an unseeded
draw, a time in the output or a result that depends on thread scheduling."""

import importlib.util
from pathlib import Path

import eigencond

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "same_bytes.py"

INVOCATIONS = [
    ["cond", "gin80.mat"],  # the SVDs on worker threads
    ["cond", "norm80.mat", "--output", "o.csv", "--manifest", "m.json"],
    ["perturb", "gin40.mat", "--eps", "1e-6", "--trials", "20", "--norm", "op",
     "--output", "o.csv"],
    ["optimize", "--n", "5", "--max-iters", "20", "--manifest", "m.json"],
    ["cond", "huge.csv", "--diag"],
]


def test_the_tree_gives_its_own_bytes():
    spec = importlib.util.spec_from_file_location("same_bytes", SCRIPT)
    same_bytes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same_bytes)
    listed = [inv for inv in same_bytes.invocations() if inv["argv"] in INVOCATIONS]
    assert len(listed) == len(INVOCATIONS)
    src = Path(eigencond.__file__).resolve().parents[1]
    records = same_bytes.compare(src, src, listed, log=None)
    assert [r["same"] for r in records] == [True] * len(INVOCATIONS)
    assert [r["parent"]["code"] for r in records] == [0] * len(INVOCATIONS)
    written = {" ".join(r["argv"]): set(r["parent"]["files"]) for r in records}
    assert written[" ".join(INVOCATIONS[1])] == {"o.csv", "m.json"}
