"""Bounded fuzz test of the CLI: seeded argument lists over every subcommand
and a fixed corpus of malformed and extreme files must follow the exit-code
rule, never print a nan cell, and print kappa_max and S_p as finite positive
numbers."""

import math
import random

import pytest

import corpus
from eigencond.cli import main

CALLS_PER_SUBCOMMAND = 25

# the corpus files drawn from, a good one three times in four
CSVS = (["bom.csv", "huge.csv", "lattice20.csv", "sub.csv", "three.csv"],
        ["dup.csv", "empty.csv", "header.csv", "inf.csv", "latin1.csv", "nan.csv",
         "one.csv", "short_row.csv", "span.csv"])
MATS = (["diag012.mat", "ginibre.mat", "huge.mat", "sub.mat"],
        ["accent.mat", "empty.mat", "ident.mat", "nan.mat", "one.mat", "short.mat"])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """(csvs, mats): the paths of CSVS and MATS in a written corpus."""
    root = tmp_path_factory.mktemp("corpus")
    corpus.write(root)
    return tuple([[str(root / name) for name in names] for names in pair]
                 for pair in (CSVS, MATS))


def _pick(rng, good, bad):
    """A good value three times in four, else a bad one."""
    return rng.choice(good if rng.random() < 0.75 else bad)


def _maybe(rng, *args):
    return list(args) if rng.random() < 0.5 else []


def _argv(subcommand, rng, csvs, mats):
    """One argument list from the small grammar of subcommand."""
    if subcommand == "lattice":
        size = (["--n", _pick(rng, ["1", "7", "20"], ["0", "-3", "x"])] if rng.random() < 0.5
                else ["--r", _pick(rng, ["0", "2.5", "3"], ["-1", "nan", "inf"])])
        return ["lattice", *size, *_maybe(rng, "--open")]
    if subcommand in ("cond", "perturb"):
        diag = rng.random() < 0.5
        argv = [subcommand, _pick(rng, *(csvs if diag else mats)), *(["--diag"] if diag else [])]
        if subcommand == "perturb":
            argv += ["--eps", _pick(rng, ["1e-6", "1e-3", "1e-12"], ["0.5", "0", "-1", "nan"]),
                     "--trials", rng.choice(["1", "3", "5"]),
                     *_maybe(rng, "--norm", rng.choice(["frob", "op"])),
                     *_maybe(rng, "--seed", rng.choice(["0", "7"]))]
        return argv
    if subcommand == "asymptotics":
        return ["asymptotics",
                "--p", _pick(rng, ["1", "2", "4", "inf"], ["0", "-2", "nan", "0.001", "1e-320"]),
                "--n-list", _pick(rng, ["2,3", "3,7,20", "2", "5,12"], ["1,5", "20,5", "2,21"]),
                *_maybe(rng, "--file", _pick(rng, *csvs))]
    if subcommand == "optimize":
        start = rng.choice([[], ["--init", rng.choice(["lattice", "random"])],
                            ["--file", _pick(rng, *csvs)]])
        return ["optimize", "--n", _pick(rng, ["2", "3", "5", "12", "20"], ["0", "1"]),
                "--p", _pick(rng, ["2", "4", "inf"], ["0", "nan", "0.001"]), *start,
                "--max-iters", rng.choice(["1", "3"]), *_maybe(rng, "--restarts", "2"),
                *_maybe(rng, "--seed", rng.choice(["0", "3"]))]
    return ["reproduce", "--n", _pick(rng, ["100", "1000", "100000"], ["0", "50", "99", "abc"])]


def _scale_free_values(subcommand, out):
    """The kappa_max cells of cond and the raw column of asymptotics."""
    lines = out.splitlines()
    if subcommand == "cond":
        return [float(cell) for cell in lines[-1].split(",")[1:]]
    if subcommand == "asymptotics":
        return [float(line.split(",")[1]) for line in lines[1:]]
    return []


@pytest.mark.parametrize("subcommand", ["lattice", "cond", "perturb", "asymptotics",
                                        "optimize", "reproduce"])
def test_main_follows_the_exit_code_rule(capsys, files, subcommand):
    rng = random.Random(subcommand)
    for _ in range(CALLS_PER_SUBCOMMAND):
        argv = _argv(subcommand, rng, *files)
        code = main(argv)  # any exception, SystemExit included, fails the test
        out, err = capsys.readouterr()
        if code == 0:
            cells = out.replace("\n", ",").split(",")
            assert "nan" not in cells, argv
            for value in _scale_free_values(subcommand, out):
                assert 0.0 < value < math.inf, (argv, out)
        elif code == 1:
            assert out == "" and err.startswith("error: "), (argv, err)
        else:
            assert code == 2, (argv, code)
            assert out == "" and err.startswith("numerical error: "), (argv, err)
