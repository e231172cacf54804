"""scripts/same_bytes.py and the invocation list of tests/corpus.py.  On six
listed invocations with the tree against itself every cold run must give the
same bytes twice, which catches an unseeded draw, a time in the output or a
result that depends on thread scheduling.  The list has one label per
invocation, and the corpus writes every input file it names.  The check of
declared differences runs on made-up records."""

import importlib.util
from pathlib import Path

import corpus
import eigencond

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "same_bytes.py"

LISTED = [
    "cond gin80.mat",  # the SVDs on worker threads
    "cond norm80.mat --output o.csv --manifest m.json",
    "perturb gin40.mat --eps 1e-6 --trials 20 --norm op --output o.csv",
    "optimize --n 5 --max-iters 20 --manifest m.json",
    "cond huge.csv --diag",
    "cond --diag lat40.csv",  # a generated point set
]

OUTPUT_FLAGS = {"--output", "--manifest", "--trace"}
MEANT_MISSING = {"missing.mat", "missing.csv"}


def load_script():
    spec = importlib.util.spec_from_file_location("same_bytes", SCRIPT)
    same_bytes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same_bytes)
    return same_bytes


def test_the_tree_gives_its_own_bytes():
    same_bytes = load_script()
    assert set(LISTED) <= set(corpus.INVOCATIONS)
    src = Path(eigencond.__file__).resolve().parents[1]
    records = same_bytes.compare(src, src, [same_bytes.invocation(line) for line in LISTED],
                                 log=None)
    assert [r["same"] for r in records] == [True] * len(LISTED)
    assert [r["parent"]["code"] for r in records] == [0] * len(LISTED)
    assert set(records[1]["parent"]["files"]) == {"o.csv", "m.json"}
    assert same_bytes.check_declared(records, []) == []


def test_each_invocation_has_one_label():
    same_bytes = load_script()
    assert len(set(corpus.INVOCATIONS)) == len(corpus.INVOCATIONS)
    assert [same_bytes.label(inv) for inv in same_bytes.invocations()] == corpus.INVOCATIONS
    assert same_bytes.invocation("EIGENCOND_SEED=5 cond --diag=a.csv") == {
        "argv": ["cond", "--diag=a.csv"], "env": {"EIGENCOND_SEED": "5"}}


def test_the_corpus_writes_every_named_input(tmp_path):
    # an input that is missing on both sides exits 1 twice and tests nothing
    corpus.write(tmp_path)
    named = set()
    for line in corpus.INVOCATIONS:
        words = line.split()
        for flag, word in zip([""] + words, words):
            name = word.rpartition("=")[2]
            if name.endswith((".mat", ".csv")) and flag not in OUTPUT_FLAGS:
                named.add(name)
    assert named - {p.name for p in tmp_path.iterdir()} == MEANT_MISSING


def record(argv, same, env=None):
    side = {"code": 1, "out": "0" * 64, "err": "1" * 64, "files": {}}
    return {"argv": argv.split(), "env": env or {}, "parent": side,
            "change": side if same else dict(side, err="2" * 64), "same": same}


RECORDS = [record("cond accent.mat", False), record("cond short.mat", True),
           record("optimize --n 5", True, {"EIGENCOND_SEED": "5"})]


def test_exactly_the_declared_invocations_differ():
    check = load_script().check_declared
    assert check(RECORDS, ["cond accent.mat"]) == []
    # the label carries the environment, as the listing prints it
    changed = RECORDS[:2] + [record("optimize --n 5", False, {"EIGENCOND_SEED": "5"})]
    assert check(changed, ["cond accent.mat", "EIGENCOND_SEED=5 optimize --n 5"]) == []


def test_every_break_of_the_declaration_is_named():
    check = load_script().check_declared
    assert check(RECORDS, []) == ["differs, but is not declared: cond accent.mat"]
    assert check(RECORDS, ["cond accent.mat", "cond short.mat"]) == [
        "declared, but gave the same bytes: cond short.mat"]
    assert check(RECORDS, ["cond accent.mat", "cond missing.mat"]) == [
        "declared, but no invocation has this label: cond missing.mat"]
    assert check(RECORDS, ["optimize --n 5"]) == [
        "declared, but no invocation has this label: optimize --n 5",
        "differs, but is not declared: cond accent.mat"]
