"""Every input file that the CLI tests and scripts/same_bytes.py read, and
the committed list of invocations that same_bytes.py runs on two trees.

write(directory) puts each hand-written file (TEXTS, one set of bytes per
file) and each seeded matrix and point set into directory.  The generators
come from benchmarks/workloads.py, which imports nothing of eigencond, so
the inputs do not depend on the tree under test.

INVOCATIONS holds one invocation per line in the label format that
same_bytes.label prints and --declared takes: environment settings, then
argv, joined by single spaces.  missing.mat and missing.csv are named but
never written.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from workloads import lattice_prefix, make_matrix, write_matrix  # noqa: E402

TEXTS = {
    "empty.csv": b"",
    "header.csv": b"re,im\n",
    "one.csv": b"re,im\n1,1\n",
    "three.csv": b"re,im\n0,0\n1,0\n0,1\n",
    "dup.csv": b"re,im\n0,0\n1,0\n1,0\n2,0\n",
    "bom.csv": b"\xef\xbb\xbfre,im\n0,0\n1,0\n",
    "latin1.csv": b"re,im\n0.0,0.0\n1.0,0.0\xe9\n",
    "short_row.csv": b"re,im\n0,0\n1\n",
    "nan.csv": b"re,im\n0,0\nnan,1\n",
    "inf.csv": b"re,im\n0,0\n1,-inf\n",
    "sub.csv": b"re,im\n1e-320,0\n0,0\n",
    "huge.csv": b"re,im\n1e308,0\n-1e308,0\n",
    "span.csv": b"re,im\n1e308,0\n1e-300,0\n0,0\n",  # wider than the float range
    "empty.mat": b"",
    "short.mat": b"2\n1 0\n0 0\n0 0\n",  # three of four entry lines
    "nan.mat": b"2\n1 0\n0 0\n0 0\nnan 0\n",
    "accent.mat": b"2\n1 0\n0 0\n0 0\n1 0\xe9\n",
    # blank lines count in the line number of the bad entry (line 6)
    "blank.mat": b"2\n\n1 0\n0 0\n\n3 0 7\n0 0\n",
    "blank_num.mat": b"2\n\n1 0\n0 0\n\n3 x\n0 0\n",
}

# name: (family, n, seed) of workloads.make_matrix
DENSE = {"gin40.mat": ("ginibre", 40, 40), "gin80.mat": ("ginibre", 80, 80),
         "g40.mat": ("ginibre", 40, 16), "grc80.mat": ("grcar", 80, 80),
         "norm40.mat": ("normal", 40, 40), "norm80.mat": ("normal", 80, 80)}

SMALL = {"one.mat": [[2.0]], "ident.mat": np.eye(2), "id5.mat": np.eye(5),
         "id300.mat": np.eye(300), "diag012.mat": np.diag([0.0, 1.0, 2.0]),
         "sub.mat": np.diag([1e-320, 0.0]), "huge.mat": np.diag([1e308, -1e308]),
         "ginibre.mat": np.random.default_rng(0).standard_normal((6, 6))}


def _seeded_points(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


POINTS = {"lattice20.csv": lattice_prefix(20), "lat40.csv": lattice_prefix(40),
          "lat.csv": lattice_prefix(2000), "init5.csv": _seeded_points(5, 5),
          "init19.csv": _seeded_points(19, 19)}


def write(directory) -> None:
    """Write every input file into directory."""
    directory = Path(directory)
    for name, data in TEXTS.items():
        (directory / name).write_bytes(data)
    for name, (family, n, seed) in DENSE.items():
        write_matrix(directory / name, make_matrix(family, n, np.random.default_rng(seed))[0])
    for name, a in SMALL.items():
        write_matrix(directory / name, np.asarray(a, dtype=complex))
    for name, z in POINTS.items():
        # Python floats: numpy's repr of a float64 is np.float64(...), no CSV number
        rows = "".join(f"{v.real!r},{v.imag!r}\n" for v in z.tolist())
        (directory / name).write_text("re,im\n" + rows, encoding="ascii")


INVOCATIONS = """\
optimize --n 12 --p 2 --init random --restarts 1 --seed 7 --trace t.jsonl --manifest m.json
optimize --n 12 --p 2 --init lattice --restarts 1 --seed 7 --trace t.jsonl --manifest m.json
optimize --n 12 --p inf --init random --restarts 1 --seed 7 --trace t.jsonl --manifest m.json
optimize --n 12 --p inf --init lattice --restarts 1 --seed 7 --trace t.jsonl --manifest m.json
optimize --n 30 --p 2 --init random --restarts 1 --seed 7 --trace t.jsonl --manifest m.json
optimize --n 30 --p 2 --init lattice --restarts 1 --seed 7 --trace t.jsonl --manifest m.json
optimize --n 30 --p inf --init random --restarts 1 --seed 7 --trace t.jsonl --manifest m.json
optimize --n 30 --p inf --init lattice --restarts 1 --seed 7 --trace t.jsonl --manifest m.json
optimize --n 60 --p 2 --init random --restarts 1 --seed 7 --trace t.jsonl --manifest m.json
optimize --n 60 --p 2 --init lattice --restarts 1 --seed 7 --trace t.jsonl --manifest m.json
optimize --n 60 --p inf --init random --restarts 1 --seed 7 --trace t.jsonl --manifest m.json
optimize --n 60 --p inf --init lattice --restarts 1 --seed 7 --trace t.jsonl --manifest m.json
cond gin40.mat
cond gin40.mat --output o.csv --manifest m.json
perturb gin40.mat --eps 1e-6 --trials 40 --seed 3
perturb gin40.mat --eps 1e-6 --trials 20 --norm op --output o.csv
lattice --n 40
lattice --r 3.5 --open
lattice --r 1.0
lattice --n 1000 --output o.csv --manifest m.json
reproduce --n 100
reproduce --n 10000
reproduce --n 12345 --output o.csv
asymptotics --p 2 --n-list 100,1000
asymptotics --p inf --n-list 100,1000
asymptotics --p 4 --n-list 10,50
asymptotics --p 2 --n-list 2,3
cond --diag lat40.csv
perturb --diag lat40.csv --eps 1e-6 --trials 5
optimize --n 5 --init lattice --max-iters 20
optimize --n 5 --max-iters 20 --manifest m.json
reproduce --n 50
reproduce --n 0
lattice --r -1
lattice --r nan
lattice --r inf
lattice --n 0
lattice
lattice --n 3 --open
perturb gin40.mat --eps 0
perturb gin40.mat --eps nan
cond one.mat
perturb one.mat --eps 1e-6
cond --diag one.csv
perturb --diag one.csv --eps 1e-6
asymptotics --p 0 --n-list 2,3
asymptotics --p 2 --n-list 0,5
asymptotics --p 2 --n-list 1
asymptotics --p 2 --n-list 5,3
asymptotics --p nan --n-list 5
asymptotics --p 2 --n-list=-1,2
optimize --n 3 --p 0
optimize --n 1
cond short.mat
cond nan.mat
cond accent.mat
cond missing.mat
perturb diag012.mat --eps 1
cond ident.mat
cond --diag dup.csv
perturb --diag dup.csv --eps 1e-6
asymptotics --p 0.001 --n-list 2,3
asymptotics --p 1e-300 --n-list 3
optimize --n 3 --p 1e-300
cond --diag missing.csv
asymptotics --p 2 --n-list 2,4,40 --file lat40.csv
asymptotics --p inf --n-list 2,10,40 --file lat40.csv
asymptotics --p 3 --n-list 2,40 --output o.csv --manifest m.json --file lat40.csv
asymptotics --p 2 --n-list 2,50 --file lat40.csv
asymptotics --p 2 --n-list 2,4 --file dup.csv
optimize --n 5 --restarts 2 --seed 3 --trace t.jsonl --manifest m.json --file init5.csv
optimize --n 40 --p inf --max-iters 30 --trace t.jsonl --output o.csv --manifest m.json --file lat40.csv
optimize --n 5 --file dup.csv
optimize --n 3 --file init5.csv
cond
perturb --eps 1e-6
cond gin40.mat --diag lat40.csv
perturb gin40.mat --diag lat40.csv --eps 1e-6
asymptotics --p 2 --n-list 2,3 --file lat40.csv
optimize --n 3 --file three.csv --max-iters 3
optimize --n 3 --init random --file three.csv
optimize --n 3 --init file --file three.csv
asymptotics --p 2 --n-list 2,3 --generator file --file three.csv
optimize --n 3 --init file
asymptotics --p 2 --n-list 2 --generator file
asymptotics --p 2 --n-list=-1,2 --file three.csv
cond --diag latin1.csv
perturb --diag latin1.csv --eps 1e-6
asymptotics --p 1e-320 --n-list 3
optimize --n 3 --p 1e-320
asymptotics --p 2 --n-list 2 --file latin1.csv
optimize --n 3 --file latin1.csv
cond lat40.csv --diag
perturb lat40.csv --diag --eps 1e-6 --trials 5
optimize --n 3 --file init5.csv --max-iters 20
EIGENCOND_SEED=5 optimize --n 5 --init random --max-iters 5 --manifest m.json
EIGENCOND_SEED=not-a-seed optimize --n 5 --init random --max-iters 5
cond --diag=lat40.csv
perturb sub.csv --diag --eps 1e-6 --trials 5
perturb sub.mat --eps 1e-6 --trials 5
asymptotics --p 2 --n-list 2,4 --file three.csv
cond huge.csv --diag
asymptotics --p 2 --n-list 2 --file huge.csv
cond bom.csv --diag
perturb huge.csv --diag --eps 1e-6 --trials 5
perturb gin40.mat --eps 1e-9 --trials 40
cond norm40.mat
cond norm80.mat --output o.csv --manifest m.json
perturb norm40.mat --eps 1e-6 --trials 20 --seed 4
cond gin80.mat
cond grc80.mat
cond span.csv --diag
asymptotics --p 2 --n-list 2,3 --file span.csv
optimize --n 2 --file huge.csv --max-iters 3
reproduce --n 2921
reproduce --n 5000
reproduce --n 20000
reproduce --n 1000000
reproduce --n 1000000000
reproduce --n 99
asymptotics --p 1 --n-list 10,100,1000,10000
asymptotics --p 2 --n-list 10,100,1000,10000
asymptotics --p inf --n-list 10,100,1000,10000
lattice --n 2000 --output lat.csv
lattice --r 20.5
cond --diag lat.csv
cond g40.mat
perturb g40.mat --eps 1e-7 --trials 50 --seed 3
optimize --n 12 --p 2 --init random --restarts 1 --seed 2052280107 --trace opt12_2_random.jsonl
optimize --n 12 --p 2 --init lattice --restarts 1 --seed 2116324468 --trace opt12_2_lattice.jsonl
optimize --n 12 --p inf --init random --restarts 1 --seed 1342866926 --trace opt12_inf_random.jsonl
optimize --n 12 --p inf --init lattice --restarts 1 --seed 1166466183 --trace opt12_inf_lattice.jsonl
optimize --n 30 --p 2 --init random --restarts 1 --seed 579283791 --trace opt30_2_random.jsonl
optimize --n 30 --p 2 --init lattice --restarts 1 --seed 986461278 --trace opt30_2_lattice.jsonl
optimize --n 30 --p inf --init random --restarts 1 --seed 549734192 --trace opt30_inf_random.jsonl
optimize --n 30 --p inf --init lattice --restarts 1 --seed 933722077 --trace opt30_inf_lattice.jsonl
optimize --n 60 --p 2 --init random --restarts 1 --seed 1983148376 --trace opt60_2_random.jsonl
optimize --n 60 --p 2 --init lattice --restarts 1 --seed 1424126117 --trace opt60_2_lattice.jsonl
optimize --n 60 --p inf --init random --restarts 1 --seed 1902175685 --trace opt60_inf_random.jsonl
optimize --n 60 --p inf --init lattice --restarts 1 --seed 121881623 --trace opt60_inf_lattice.jsonl
--version
--help
lattice --n 5 --bogus
optimize --n 12 --p 2 --init random --restarts 1 --seed 93 --trace t.jsonl --manifest m.json
optimize --n 12 --p 2 --init lattice --restarts 1 --seed 93 --trace t.jsonl --manifest m.json
optimize --n 12 --p inf --init random --restarts 1 --seed 93 --trace t.jsonl --manifest m.json
optimize --n 12 --p inf --init lattice --restarts 1 --seed 93 --trace t.jsonl --manifest m.json
optimize --n 30 --p 2 --init random --restarts 1 --seed 93 --trace t.jsonl --manifest m.json
optimize --n 30 --p 2 --init lattice --restarts 1 --seed 93 --trace t.jsonl --manifest m.json
optimize --n 30 --p inf --init random --restarts 1 --seed 93 --trace t.jsonl --manifest m.json
optimize --n 30 --p inf --init lattice --restarts 1 --seed 93 --trace t.jsonl --manifest m.json
optimize --n 60 --p 2 --init random --restarts 1 --seed 93 --trace t.jsonl --manifest m.json
optimize --n 60 --p 2 --init lattice --restarts 1 --seed 93 --trace t.jsonl --manifest m.json
optimize --n 60 --p inf --init random --restarts 1 --seed 93 --trace t.jsonl --manifest m.json
optimize --n 60 --p inf --init lattice --restarts 1 --seed 93 --trace t.jsonl --manifest m.json
optimize --n 5 --p 4 --restarts 3 --trace t.jsonl --manifest m.json
optimize --n 12 --restarts 4 --init random --trace t.jsonl --manifest m.json
optimize --n 19 --file init19.csv --restarts 2 --trace t.jsonl --manifest m.json
optimize --n 12 --p inf --restarts 3 --max-iters 40 --seed 5
cond --diag lat40.csv --manifest m.json
cond gin40.mat --manifest m.json
perturb gin40.mat --eps 1e-9 --trials 50 --seed 3 --manifest m.json
asymptotics --p 4
cond id5.mat
cond id300.mat
cond blank.mat
cond blank_num.mat
optimize --n 5 --file init5.csv --restarts 2 --seed 3
perturb gin40.mat --eps -1
perturb gin40.mat --eps inf
optimize --n 3 --file init5.csv --max-iters 3
EIGENCOND_SEED=x perturb one.mat --eps 1e-6
perturb one.mat --eps 0
reproduce --n 410205473
""".splitlines()
