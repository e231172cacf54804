"""CLI grammar, CSV formats, exit codes, manifests, and reproducibility."""

import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import eigencond.cli
import eigencond.conditioning
import eigencond.extremal
import eigencond.lattice
from eigencond.cli import (MAX_OPTIMIZE_POINTS, MAX_POINTS, MAX_REPRODUCE_N, main,
                           read_configuration_csv, reproduce_rows)
from eigencond.conditioning import condition_report_diagonal
from eigencond.extremal import separation_functional
from eigencond.lattice import first_n_lattice_points, first_n_sites
from eigencond.linalg import write_matrix

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = [ln for ln in text.splitlines() if ln]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


@pytest.fixture()
def diag012_file(tmp_path):
    path = tmp_path / "diag012.mat"
    write_matrix(path, np.diag([0.0, 1.0, 2.0]).astype(complex))
    return str(path)


class TestLatticeCommand:
    def test_first_seven_points(self, capsys):
        code, out, err = run_cli(capsys, "lattice", "--n", "7")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["index", "a", "b", "re", "im", "modulus"]
        assert len(rows) == 7
        assert rows[0] == ["0", "0", "0", "0.0", "0.0", "0.0"]
        assert all(row[5] == "1.0" for row in rows[1:])

    def test_disk_variants(self, capsys):
        code, out, _ = run_cli(capsys, "lattice", "--r", "1.0")
        assert code == 0 and len(out.splitlines()) == 8
        code, out, _ = run_cli(capsys, "lattice", "--r", "1.0", "--open")
        assert code == 0 and len(out.splitlines()) == 2

    def test_usage_errors_exit_1(self, capsys):
        assert run_cli(capsys, "lattice")[0] == 1
        assert run_cli(capsys, "lattice", "--n", "7", "--r", "2")[0] == 1
        assert run_cli(capsys, "lattice", "--n", "0")[0] == 1
        assert run_cli(capsys, "lattice", "--r", "-1")[0] == 1
        assert run_cli(capsys, "lattice", "--n", "3", "--bogus")[0] == 1

    def test_size_guard_rejects_before_building(self, capsys):
        too_many = str(MAX_POINTS + 1)
        for args, limit in ((("lattice", "--n", too_many), MAX_POINTS),
                            (("lattice", "--r", "1e9"), MAX_POINTS),
                            (("lattice", "--r", "1e200"), MAX_POINTS),
                            (("reproduce", "--n", str(MAX_REPRODUCE_N + 1)), MAX_REPRODUCE_N),
                            (("asymptotics", "--p", "2", "--n-list", f"100,{too_many}"),
                             MAX_POINTS)):
            code, out, err = run_cli(capsys, *args)
            assert code == 1 and out == ""
            assert f"limit is {limit}" in err
        assert MAX_POINTS >= 10 ** 6  # lattice --n 1000000 stays admissible
        assert MAX_REPRODUCE_N >= 10 ** 9  # reproduce --n 1000000000 stays admissible

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "pts.csv"
        code, out, _ = run_cli(capsys, "lattice", "--n", "3", "--output", str(target))
        assert code == 0 and out == ""
        assert target.read_text().startswith("index,a,b,re,im,modulus")

    def test_output_is_written_in_chunks_of_bounded_memory(self, capsys, tmp_path):
        # the CSV of one string per site, joined whole, peaked at 257 B/site
        n = 100_000
        target = tmp_path / "pts.csv"
        run_cli(capsys, "lattice", "--n", "7")  # first-use allocations
        tracemalloc.start()
        try:
            code, _, _ = run_cli(capsys, "lattice", "--n", str(n), "--output", str(target))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak <= 80 * n
        sites = first_n_sites(n)
        expected = "".join(f"{i},{a},{b},{w.real!r},{w.imag!r},{abs(w)!r}\n"
                           for i, (a, b, w) in enumerate(zip(sites.a.tolist(), sites.b.tolist(),
                                                             sites.z.tolist())))
        assert target.read_text() == "index,a,b,re,im,modulus\n" + expected

    def test_output_reads_back_as_configuration(self, capsys, tmp_path):
        target = tmp_path / "pts.csv"
        run_cli(capsys, "lattice", "--n", "7", "--output", str(target))
        config = read_configuration_csv(target)
        assert config.n == 7
        assert config.min_separation == 1.0


class TestCondCommand:
    def test_matrix_file_report(self, capsys, diag012_file):
        code, out, _ = run_cli(capsys, "cond", diag012_file)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "lambda_re,lambda_im,kappa_lambda,kappa_x"
        assert len(lines) == 5
        footer = lines[-1].split(",")
        assert footer[0] == "kappa_max"
        assert float(footer[1]) == pytest.approx(math.sqrt(5.0), rel=1e-12)
        assert float(footer[2]) == pytest.approx(2.0, rel=1e-12)

    def test_cold_stdout_does_not_depend_on_blas_threads(self, tmp_path):
        rng = np.random.default_rng(5)
        n = 120
        path = str(tmp_path / "g120.mat")
        write_matrix(path, (rng.standard_normal((n, n))
                            + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0))
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=REPO_SRC, OPENBLAS_NUM_THREADS=threads)
            runs.append(subprocess.run([sys.executable, "-m", "eigencond", "cond", path],
                                       capture_output=True, text=True, env=env))
        assert [r.returncode for r in runs] == [0, 0], runs[0].stderr + runs[1].stderr
        assert runs[0].stdout == runs[1].stdout
        assert len(runs[0].stdout.splitlines()) == n + 2
        for run in runs:
            pinned = json.loads(run.stderr.splitlines()[-1])["environment"]["blas_threads"]
            assert 1 in pinned.values() and set(pinned.values()) <= {1, None}

    def test_diag_fast_path_from_lattice_csv(self, capsys, tmp_path):
        config_csv = tmp_path / "c.csv"
        run_cli(capsys, "lattice", "--n", "7", "--output", str(config_csv))
        code, out, err = run_cli(capsys, "cond", "--diag", str(config_csv))
        assert code == 0
        assert json.loads(err.splitlines()[-1])["environment"] is None
        footer = out.splitlines()[-1].split(",")
        assert float(footer[1]) == pytest.approx(math.sqrt(6.0), rel=1e-12)
        assert float(footer[2]) == pytest.approx(1.0, rel=1e-12)

    def test_duplicate_points_exit_2(self, capsys, tmp_path):
        dup = tmp_path / "dup.csv"
        dup.write_text("re,im\n1.0,0.0\n1.0,0.0\n")
        code, _, err = run_cli(capsys, "cond", "--diag", str(dup))
        assert code == 2
        assert "distinct" in err

    def test_clustered_matrix_exit_2(self, capsys, tmp_path):
        path = tmp_path / "id.mat"
        write_matrix(path, np.eye(2, dtype=complex))
        code, _, err = run_cli(capsys, "cond", str(path))
        assert code == 2
        assert "clustered" in err

    def test_requires_exactly_one_source(self, capsys, diag012_file, tmp_path):
        dup = tmp_path / "c.csv"
        dup.write_text("re,im\n0.0,0.0\n1.0,0.0\n")
        assert run_cli(capsys, "cond")[0] == 1
        assert run_cli(capsys, "cond", diag012_file, "--diag", str(dup))[0] == 1

    def test_missing_file_exit_1(self, capsys):
        assert run_cli(capsys, "cond", "/nonexistent/path.mat")[0] == 1

    def test_diag_searches_neighbours_once(self, capsys, tmp_path, monkeypatch):
        # a CSV has no analytic separation: the report's own search supplies it
        config_csv = tmp_path / "c.csv"
        run_cli(capsys, "lattice", "--n", "500", "--output", str(config_csv))
        calls = []
        search = eigencond.lattice.nearest_neighbor_distances

        def counted(points):
            calls.append(len(points))
            return search(points)

        monkeypatch.setattr(eigencond.lattice, "nearest_neighbor_distances", counted)
        monkeypatch.setattr(eigencond.conditioning, "nearest_neighbor_distances", counted)
        code, out, _ = run_cli(capsys, "cond", "--diag", str(config_csv))
        assert code == 0 and calls == [500]
        footer = out.splitlines()[-1].split(",")
        config = read_configuration_csv(config_csv)
        assert float(footer[1]) == separation_functional(config, 2.0)
        assert float(footer[2]) == separation_functional(config, math.inf)


class TestPerturbCommand:
    def test_ratios_against_kappas(self, capsys, diag012_file):
        code, out, _ = run_cli(capsys, "perturb", diag012_file, "--eps", "1e-6",
                               "--trials", "25", "--seed", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ("lambda_re,lambda_im,kappa_lambda,kappa_x,"
                            "shift_ratio,angle_ratio")
        assert lines[-1] == "excluded_trials,0"
        for ln in lines[1:-1]:
            _, _, kl, kx, shift, angle = map(float, ln.split(","))
            assert shift <= kl * (1.0 + 1e-4)
            assert angle <= kx * (1.0 + 1e-3)

    def test_seed_flag_beats_environment(self, capsys, diag012_file, monkeypatch):
        _, with_flag, _ = run_cli(capsys, "perturb", diag012_file, "--eps", "1e-6",
                                  "--trials", "5", "--seed", "9")
        monkeypatch.setenv("EIGENCOND_SEED", "9")
        _, with_env, _ = run_cli(capsys, "perturb", diag012_file, "--eps", "1e-6",
                                 "--trials", "5")
        monkeypatch.setenv("EIGENCOND_SEED", "1234")
        _, env_loses, _ = run_cli(capsys, "perturb", diag012_file, "--eps", "1e-6",
                                  "--trials", "5", "--seed", "9")
        assert with_flag == with_env == env_loses

    def test_bad_environment_seed(self, capsys, diag012_file, monkeypatch):
        monkeypatch.setenv("EIGENCOND_SEED", "not-a-seed")
        code, _, err = run_cli(capsys, "perturb", diag012_file, "--eps", "1e-6")
        assert code == 1 and "EIGENCOND_SEED" in err

    def test_oversized_epsilon_exit_2(self, capsys, diag012_file):
        code, _, err = run_cli(capsys, "perturb", diag012_file, "--eps", "0.5")
        assert code == 2

    def test_repeat_runs_identical(self, capsys, diag012_file):
        args = ("perturb", diag012_file, "--eps", "1e-6", "--trials", "10", "--seed", "4")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestAsymptoticsCommand:
    def test_lattice_generator(self, capsys):
        code, out, _ = run_cli(capsys, "asymptotics", "--p", "2", "--n-list", "100,400")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["n", "raw", "scale", "ratio", "target", "margin"]
        assert [r[0] for r in rows] == ["100", "400"]
        for row in rows:
            assert float(row[3]) == pytest.approx(float(row[1]) / float(row[2]), rel=1e-15)
            assert float(row[5]) == pytest.approx(float(row[3]) / float(row[4]), rel=1e-15)

    # float(n) ** 0.5 != math.sqrt(n) at 2921, 5579 and 7827: the two
    # commands share one growth scale, so their ratios agree there too
    @pytest.mark.parametrize("n", [100, 2921, 4999, 5000, 5579, 7827, 20000, 123457])
    def test_lattice_raw_equals_reproduce(self, capsys, n):
        # raw is the functional reproduce divides by its scale: both are the
        # exact integer sums of the enumerated prefix, rounded once
        sites = first_n_sites(n)
        q = sites.a * (sites.a + sites.b) + sites.b * sites.b
        frob, op = reproduce_rows(n)
        for p, row, scale, exact in (("2", frob, float(n), int(q.sum())),
                                     ("inf", op, math.sqrt(float(n)), int(q.max()))):
            code, out, _ = run_cli(capsys, "asymptotics", "--p", p, "--n-list", str(n))
            assert code == 0
            _, raw, scale_out, ratio, _, _ = csv_rows(out)[1][0]
            assert float(raw) == math.sqrt(float(exact))
            assert float(scale_out) == scale
            assert float(ratio) == float(raw) / scale == row["measured_ratio"]

    def test_infinite_p(self, capsys):
        code, out, _ = run_cli(capsys, "asymptotics", "--p", "inf", "--n-list", "100")
        assert code == 0
        _, rows = csv_rows(out)
        assert float(rows[0][2]) == 10.0

    def test_file_generator(self, capsys, tmp_path):
        config_csv = tmp_path / "c.csv"
        run_cli(capsys, "lattice", "--n", "50", "--output", str(config_csv))
        code, out, _ = run_cli(capsys, "asymptotics", "--p", "2", "--n-list", "10,30",
                               "--generator", "file", "--file", str(config_csv))
        assert code == 0
        assert len(out.splitlines()) == 3
        code, _, _ = run_cli(capsys, "asymptotics", "--p", "2", "--n-list", "10,80",
                             "--generator", "file", "--file", str(config_csv))
        assert code == 1  # file holds only 50 points
        assert run_cli(capsys, "asymptotics", "--p", "2", "--n-list", "10",
                       "--generator", "file")[0] == 1

    def test_overflowing_p_exits_2(self, capsys, tmp_path):
        # p = 0.001 overflows the lattice p-norm; on the pair {0, 1}, whose
        # p-norm is 1, p = 0.0005 overflows the scale 2^(1/2 + 1/p)
        pair = tmp_path / "pair.csv"
        pair.write_text("re,im\n0,0\n1,0\n")
        for args in (("--p", "0.001", "--n-list", "100,200"),
                     ("--p", "0.0005", "--n-list", "2", "--generator", "file",
                      "--file", str(pair))):
            code, out, err = run_cli(capsys, "asymptotics", *args)
            assert code == 2 and out == ""
            assert err.startswith("numerical error:") and err.count("\n") == 1

    def test_bad_n_list_and_p(self, capsys):
        assert run_cli(capsys, "asymptotics", "--p", "2", "--n-list", "x")[0] == 1
        assert run_cli(capsys, "asymptotics", "--p", "2", "--n-list", "100,100")[0] == 1
        assert run_cli(capsys, "asymptotics", "--p", "-2", "--n-list", "100")[0] == 1


class TestOptimizeCommand:
    def test_overflowing_p_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "optimize", "--n", "5", "--p", "0.001")
        assert code == 2 and out == ""
        assert err.startswith("numerical error:") and err.count("\n") == 1

    def test_csv_and_trace(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        code, out, _ = run_cli(capsys, "optimize", "--n", "2", "--p", "2",
                               "--init", "random", "--seed", "1",
                               "--trace", str(trace))
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["re", "im"] and len(rows) == 2
        records = [json.loads(ln) for ln in trace.read_text().splitlines()]
        assert records[0]["iteration"] == 0
        done = records[-1]
        assert done["event"] == "done"
        assert done["objective"] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-3)
        assert done["objective"] <= done["init_objective"]

    def test_file_init_roundtrip(self, capsys, tmp_path):
        config_csv = tmp_path / "c.csv"
        run_cli(capsys, "lattice", "--n", "4", "--output", str(config_csv))
        code, out, _ = run_cli(capsys, "optimize", "--n", "4", "--init", "file",
                               "--file", str(config_csv), "--max-iters", "20")
        assert code == 0
        assert run_cli(capsys, "optimize", "--n", "4", "--init", "file")[0] == 1

    def test_deterministic_output(self, capsys):
        args = ("optimize", "--n", "3", "--init", "random", "--seed", "2",
                "--max-iters", "40")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_size_guard_rejects_before_optimizing(self, capsys, monkeypatch):
        def never(cfg):
            raise AssertionError("optimize ran past the size guard")

        monkeypatch.setattr(eigencond.cli, "optimize", never)
        code, out, err = run_cli(capsys, "optimize", "--n", str(MAX_OPTIMIZE_POINTS + 1))
        assert code == 1 and out == ""
        assert f"limit is {MAX_OPTIMIZE_POINTS}" in err
        assert MAX_OPTIMIZE_POINTS >= 60  # the benchmark's largest optimize --n


class TestReproduceCommand:
    def test_small_run(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "--n", "400")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["norm", "n", "measured_ratio", "target", "rel_deviation"]
        assert [r[0] for r in rows] == ["frobenius", "operator"]
        frob, op = rows
        assert float(frob[3]) == pytest.approx(3.0 ** 0.25 / (2.0 * math.sqrt(math.pi)), rel=1e-12)
        assert float(op[3]) == pytest.approx(3.0 ** 0.25 / math.sqrt(2.0 * math.pi), rel=1e-12)
        assert float(frob[4]) < 0.03
        assert float(op[4]) < 0.03

    def test_requires_n_at_least_100(self, capsys):
        assert run_cli(capsys, "reproduce", "--n", "50")[0] == 1

    @pytest.mark.parametrize("n", [100, 101, 4999, 5000, 20000, 123457])
    def test_rows_equal_the_diagonal_report(self, n):
        # oracle 1: exact integer sums over the enumerated prefix, each rounded
        # to a float once, give the rows bit for bit
        sites = first_n_sites(n)
        q = sites.a * (sites.a + sites.b) + sites.b * sites.b
        frob, op = reproduce_rows(n)
        assert frob["measured_ratio"] == math.sqrt(float(int(q.sum()))) / float(n)
        assert op["measured_ratio"] == math.sqrt(float(int(q.max()))) / math.sqrt(float(n))
        # oracle 2: the full per-site report sums rounded moduli of a rounded
        # embedding, so it agrees to within 2 ulp
        report = condition_report_diagonal(first_n_lattice_points(n))
        for measured, expected in ((frob["measured_ratio"], report.kappa_max_frob / float(n)),
                                   (op["measured_ratio"],
                                    report.kappa_max_op / math.sqrt(float(n)))):
            assert abs(measured - expected) <= 2.0 * math.ulp(expected)
        # and the aggregates agree with the report's own rows (separation 1)
        eigs = np.array([row.eigenvalue for row in report.per_eigenpair])
        assert report.kappa_max_op == np.abs(eigs).max()
        assert report.kappa_max_frob == pytest.approx(np.linalg.norm(eigs), rel=1e-13)

    def test_cap_matches_python_int_shell_sums(self):
        # the rows at the cap from a pure-Python evaluation of the row sums
        n = MAX_REPRODUCE_N

        def shell(bound):
            # row b holds t = -top', -top' + 2, ..., top' with t = b (mod 2),
            # and 4q = t^2 + 3b^2; sum t^2 over the progression in closed form
            count, four_q = 0, 0
            rows = math.isqrt(4 * bound // 3)
            for b in range(-rows, rows + 1):
                top = math.isqrt(4 * bound - 3 * b * b)
                start = -top + (top - b) % 2
                m = len(range(start, top + 1, 2))
                count += m
                four_q += (m * start * start + 2 * start * m * (m - 1)
                           + 2 * (m - 1) * m * (2 * m - 1) // 3 + 3 * b * b * m)
            return count, four_q // 4

        frob, op = reproduce_rows(n)
        q_max = round((op["measured_ratio"] * math.sqrt(n)) ** 2)
        below, q_sum = shell(q_max - 1)
        assert below < n <= shell(q_max)[0]
        q_sum += (n - below) * q_max
        assert frob["measured_ratio"] == math.sqrt(float(q_sum)) / float(n)
        assert op["measured_ratio"] == math.sqrt(float(q_max)) / math.sqrt(float(n))

    def test_cap_is_checked_before_any_work(self, capsys, monkeypatch):
        def forbidden(bound):
            raise AssertionError("reproduce summed shells above its cap")

        monkeypatch.setattr(eigencond.lattice, "_shell_sums", forbidden)
        code, out, err = run_cli(capsys, "reproduce", "--n", str(MAX_REPRODUCE_N + 1))
        assert code == 1 and out == "" and f"limit is {MAX_REPRODUCE_N}" in err
        with pytest.raises(SystemExit):
            main(["reproduce", "--help"])
        assert f"n <= {MAX_REPRODUCE_N}" in capsys.readouterr().out

    def test_runs_without_a_neighbour_search(self, monkeypatch):
        expected = reproduce_rows(5000)

        def forbidden(points):
            raise AssertionError("reproduce ran a neighbour search")

        monkeypatch.setattr(eigencond.lattice, "nearest_neighbor_distances", forbidden)
        monkeypatch.setattr(eigencond.conditioning, "nearest_neighbor_distances", forbidden)
        assert reproduce_rows(5000) == expected

    def test_enumerates_no_site(self, monkeypatch):
        expected = reproduce_rows(20000)

        def forbidden(*args, **kwargs):
            raise AssertionError("reproduce built sites or a configuration")

        for module, name in ((eigencond.lattice, "enumerate_lattice_in_disk"),
                             (eigencond.lattice, "first_n_sites"),
                             (eigencond.lattice, "Configuration"),
                             (eigencond.extremal, "first_n_lattice_points"),
                             (eigencond.extremal, "separation_functional"),
                             (np, "sort"), (np, "lexsort")):
            monkeypatch.setattr(module, name, forbidden)
        assert reproduce_rows(20000) == expected

    def test_does_not_import_scipy_spatial(self):
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        code = ("import sys; from eigencond.cli import main; "
                "assert main(['reproduce', '--n', '5000']) == 0; "
                "sys.exit('scipy.spatial' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                text=True, env=env)
        assert result.returncode == 0, result.stderr


class TestDeferredImports:
    def run_fresh(self, code):
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        return subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env)

    def test_subcommands_without_a_matrix_do_not_load_scipy_linalg(self):
        code = textwrap.dedent("""
            import sys
            import eigencond, eigencond.cli
            loaded = ['scipy.linalg' in sys.modules]
            for argv in (['lattice', '--n', '50'], ['reproduce', '--n', '200'],
                         ['asymptotics', '--p', '2', '--n-list', '10,100'],
                         ['optimize', '--n', '5', '--max-iters', '5']):
                assert eigencond.cli.main(argv) == 0, argv
                loaded.append('scipy.linalg' in sys.modules)
            print(loaded, file=sys.stderr)
            """)
        result = self.run_fresh(code)
        assert result.returncode == 0, result.stderr
        assert result.stderr.splitlines()[-1] == str([False] * 5)

    def test_cold_cond_loads_scipy_linalg_and_matches(self, capsys, tmp_path):
        rng = np.random.default_rng(11)
        path = str(tmp_path / "g3.mat")
        write_matrix(path, rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        code = textwrap.dedent(f"""
            import sys
            from eigencond.cli import main
            before = 'scipy.linalg' in sys.modules
            assert main(['cond', {path!r}]) == 0
            print(before, 'scipy.linalg' in sys.modules, file=sys.stderr)
            """)
        result = self.run_fresh(code)
        assert result.returncode == 0, result.stderr
        assert result.stderr.splitlines()[-1] == "False True"
        code, out, _ = run_cli(capsys, "cond", path)
        assert code == 0 and result.stdout == out
        assert len(out.splitlines()) == 5


class TestRepeatedRuns:
    def test_runs_in_one_process_keep_no_state(self, capsys, tmp_path, monkeypatch):
        # one process: optimize with --trace and --seed, then runs without
        # them; each manifest equals the one a fresh process writes
        monkeypatch.delenv("EIGENCOND_SEED", raising=False)
        env = {k: v for k, v in os.environ.items() if k != "EIGENCOND_SEED"}
        env["PYTHONPATH"] = REPO_SRC
        trace = str(tmp_path / "trace.jsonl")
        runs = (["optimize", "--n", "6", "--max-iters", "5", "--trace", trace, "--seed", "3"],
                ["reproduce", "--n", "200"],
                ["perturb", "--diag", _write_config(tmp_path), "--eps", "1e-6",
                 "--trials", "3"])
        in_process = []
        for k, argv in enumerate(runs):
            man = tmp_path / f"in{k}.json"
            assert run_cli(capsys, *argv, "--manifest", str(man))[0] == 0
            in_process.append(json.loads(man.read_text()))
        assert in_process[0]["seed"] == 3 and in_process[0]["output_paths"] == ["-", trace]
        assert in_process[1]["output_paths"] == ["-"] and in_process[1]["seed"] is None
        assert in_process[2]["seed"] == 0
        for k, argv in enumerate(runs):
            man = tmp_path / f"fresh{k}.json"
            result = subprocess.run([sys.executable, "-m", "eigencond", *argv,
                                     "--manifest", str(man)],
                                    capture_output=True, text=True, env=env)
            assert result.returncode == 0, result.stderr
            assert json.loads(man.read_text()) == in_process[k], argv

    def test_reused_parser_gives_the_bytes_of_a_fresh_one(self, capsys, tmp_path,
                                                          monkeypatch):
        # the same mixed sequence twice, with main's parser reused and with
        # one built afresh for every call: stdout, stderr, exit codes and
        # written files must match byte for byte
        runs = [(None, ["reproduce", "--n", "5000"]),
                (None, ["asymptotics", "--p", "2", "--n-list", "2,50,2921"]),
                (None, ["lattice", "--n", "60", "--output", "lat.csv"]),
                (None, ["cond", "--diag", "lat.csv", "--manifest", "man.json"]),
                (None, ["optimize", "--n", "6", "--init", "random", "--max-iters", "5",
                        "--seed", "3", "--trace", "trace.jsonl"]),
                (None, ["lattice", "--n", "5", "--bogus"]),
                (None, ["reproduce", "--help"]),
                ("3", ["optimize", "--n", "5", "--init", "random", "--max-iters", "4"]),
                ("8", ["optimize", "--n", "5", "--init", "random", "--max-iters", "4"]),
                (None, ["reproduce", "--n", "100", "--output", "rep.csv"]),
                (None, ["reproduce", "--n", "100"]),
                (None, ["asymptotics", "--p", "inf", "--n-list", "7,5579",
                        "--output", "asy.csv"]),
                (None, ["asymptotics", "--p", "inf", "--n-list", "7,5579"]),
                (None, ["cond", "--diag", "missing.csv"]),
                (None, ["--version"])]

        def sequence(directory):
            directory.mkdir()
            monkeypatch.chdir(directory)
            record = []
            for env_seed, argv in runs:
                if env_seed is None:
                    monkeypatch.delenv("EIGENCOND_SEED", raising=False)
                else:
                    monkeypatch.setenv("EIGENCOND_SEED", env_seed)
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = ("exit", exc.code)
                captured = capsys.readouterr()
                record.append((argv, code, captured.out, captured.err))
            files = {path.name: path.read_bytes() for path in sorted(directory.iterdir())}
            return record, files

        eigencond.cli._parser.cache_clear()
        reused = sequence(tmp_path / "reused")
        monkeypatch.setattr(eigencond.cli, "_parser", eigencond.cli.build_parser)
        fresh = sequence(tmp_path / "fresh")
        assert reused == fresh
        codes = [code for _, code, _, _ in reused[0]]
        assert codes.count(1) == 2 and codes.count(("exit", 0)) == 2
        assert reused[0][7][2] != reused[0][8][2]  # stdout under EIGENCOND_SEED 3 and 8
        assert sorted(reused[1]) == ["asy.csv", "lat.csv", "man.json", "rep.csv",
                                     "trace.jsonl"]

    def test_parser_is_built_once_per_process(self, capsys, monkeypatch):
        builds = []
        build = eigencond.cli.build_parser

        def counting_build():
            builds.append(None)
            return build()

        monkeypatch.setattr(eigencond.cli, "build_parser", counting_build)
        eigencond.cli._parser.cache_clear()
        try:
            for k in range(50):
                assert main(["reproduce", "--n", str(100 + k)]) == 0
        finally:
            eigencond.cli._parser.cache_clear()
        capsys.readouterr()
        assert len(builds) == 1


class TestManifest:
    def test_stderr_manifest(self, capsys):
        code, _, err = run_cli(capsys, "lattice", "--n", "3")
        manifest = json.loads(err.splitlines()[-1])
        assert manifest["subcommand"] == "lattice"
        assert manifest["parameters"]["n"] == 3
        assert manifest["tool_version"]
        assert manifest["output_paths"] == ["-"]
        assert manifest["environment"] is None

    def test_manifest_file(self, capsys, tmp_path):
        man = tmp_path / "run.json"
        out_csv = tmp_path / "out.csv"
        run_cli(capsys, "perturb", "--diag", _write_config(tmp_path), "--eps", "1e-6",
                "--trials", "2", "--seed", "5", "--manifest", str(man),
                "--output", str(out_csv))
        manifest = json.loads(man.read_text())
        assert manifest["subcommand"] == "perturb"
        assert manifest["seed"] == 5
        assert manifest["output_paths"] == [str(out_csv)]
        assert 1 in manifest["environment"]["blas_threads"].values()

    def test_parameters_hold_only_inputs(self, capsys):
        code, _, err = run_cli(capsys, "lattice", "--n", "2")
        assert code == 0
        assert json.loads(err.splitlines()[-1])["parameters"] == {"n": 2}
        assert run_cli(capsys, "lattice", "--n", "2", "--threads", "1")[0] == 1

    def test_manifest_is_serialized_once(self, capsys, tmp_path, monkeypatch):
        # stderr and --manifest carry the same string, serialized once
        calls = []
        to_json = eigencond.cli._to_json

        def counted(value, **kwargs):
            calls.append(value)
            return to_json(value, **kwargs)

        monkeypatch.setattr(eigencond.cli, "_to_json", counted)
        man = tmp_path / "run.json"
        code, _, err = run_cli(capsys, "reproduce", "--n", "1000", "--manifest", str(man))
        assert code == 0 and len(calls) == 1
        text = man.read_text()
        assert text.endswith("\n") and err.splitlines()[-1] == text[:-1]
        assert set(json.loads(text)) == {"subcommand", "parameters", "seed", "tool_version",
                                         "output_paths", "environment"}


@pytest.mark.parametrize("argv", [
    ("reproduce", "--n", "1000", "--output"), ("lattice", "--n", "10", "--output"),
    ("reproduce", "--n", "1000", "--manifest"),
    ("optimize", "--n", "5", "--max-iters", "3", "--trace"),
], ids=["reproduce-output", "lattice-output", "manifest", "trace"])
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_unwritable_output_path_exit_1(capsys, tmp_path, argv, target):
    # a missing directory or a directory given as the path: exit 1 with a
    # message, in process and cold, never a traceback
    path = str(tmp_path / "missing" / "out") if target == "missing-directory" else str(tmp_path)
    code, _, err = run_cli(capsys, *argv, path)
    assert code == 1
    assert err.splitlines()[-1].startswith(f"error: cannot write {path}: ")
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    result = subprocess.run([sys.executable, "-m", "eigencond", *argv, path],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 1 and "Traceback" not in result.stderr
    assert result.stderr.splitlines()[-1] == err.splitlines()[-1]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


class TestStrictJson:
    def test_nonfinite_floats_are_strings(self):
        value = {"p": math.inf, "list": [-math.inf, math.nan, 1.5], "pair": (0.1, 2)}
        text = eigencond.cli._to_json(value, sort_keys=True)
        assert text == '{"list": ["-inf", "nan", 1.5], "p": "inf", "pair": [0.1, 2]}'
        finite = {"x": 0.1, "n": [1, 2.5], "s": None}
        assert eigencond.cli._to_json(finite) == json.dumps(finite)

    def test_infinite_p_manifests_parse(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        for argv in (["asymptotics", "--p", "inf", "--n-list", "10,100"],
                     ["optimize", "--n", "8", "--p", "inf", "--init", "random",
                      "--max-iters", "5", "--trace", str(trace)]):
            man = tmp_path / "run.json"
            code, _, err = run_cli(capsys, *argv, "--manifest", str(man))
            assert code == 0
            for text in (err.splitlines()[-1], man.read_text()):
                assert strict_json(text)["parameters"]["p"] == "inf"
        lines = trace.read_text().splitlines()
        assert len(lines) > 2
        assert all(math.isfinite(strict_json(ln)["objective"]) for ln in lines)


@pytest.mark.parametrize("cell, text", [
    (0.1, "0.1"), (np.float64(0.1), "0.1"), (math.inf, "inf"), (-math.inf, "-inf"),
    (np.float64(math.inf), "inf"), (math.nan, "nan"), (-0.0, "-0.0"),
    (5e-324, "5e-324"), (1e16, "1e+16"), (np.float64(1e16), "1e+16"),
    (2.0, "2.0"), (7, "7"), (-3, "-3"), ("kappa_max", "kappa_max"),
])
def test_csv_cells_keep_the_fstring_bytes(cell, text):
    # floats (np.float64 included) as repr(float(x)), every other cell as str,
    # which are the bytes of the per-command f-strings that _csv replaced
    assert text == (repr(float(cell)) if isinstance(cell, float) else f"{cell}")
    assert eigencond.cli._csv("a,b", [(cell, cell), ("x", cell)]) == f"a,b\n{text},{text}\nx,{text}\n"


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_nonfinite_configuration_csv_exit_1(capsys, tmp_path, bad):
    path = tmp_path / "bad.csv"
    path.write_text(f"re,im\n0.0,0.0\n\n1.0,{bad}\n2.0,0.0\n")
    for args in (("cond", "--diag", str(path)),
                 ("perturb", "--diag", str(path), "--eps", "1e-6"),
                 ("asymptotics", "--p", "2", "--n-list", "2",
                  "--generator", "file", "--file", str(path)),
                 ("optimize", "--n", "3", "--init", "file", "--file", str(path))):
        code, out, err = run_cli(capsys, *args)
        assert code == 1 and out == ""
        assert "line 4" in err and "not finite" in err


def test_duplicate_points_exit_2(capsys, tmp_path):
    path = str(tmp_path / "dup.csv")
    Path(path).write_text("re,im\n0,0\n1,0\n1,0\n2,0\n")
    for args in (("cond", "--diag", path),
                 ("perturb", "--diag", path, "--eps", "1e-6"),
                 ("asymptotics", "--p", "2", "--n-list", "2,4",
                  "--generator", "file", "--file", path),
                 ("optimize", "--n", "4", "--init", "file", "--file", path,
                  "--max-iters", "5")):
        code, out, err = run_cli(capsys, *args)
        assert code == 2 and out == "", args
    assert "not pairwise distinct" in err or "coincident" in err
    code, out, err = run_cli(capsys, "asymptotics", "--p", "2", "--n-list", "2,4",
                             "--generator", "file", "--file", path)
    assert "first 4 points are not pairwise distinct" in err
    # a prefix without the repeated point is still a valid configuration
    code, out, _ = run_cli(capsys, "asymptotics", "--p", "2", "--n-list", "2",
                           "--generator", "file", "--file", path)
    assert code == 0 and len(out.splitlines()) == 2


@pytest.mark.parametrize("args", [
    ("cond", "--diag", "{csv}"), ("cond", "{mat}"),
    ("perturb", "--diag", "{csv}", "--eps", "1e-6"), ("perturb", "{mat}", "--eps", "1e-6"),
    ("asymptotics", "--p", "2", "--n-list", "1"), ("optimize", "--n", "1"),
], ids=["cond-diag", "cond-matrix", "perturb-diag", "perturb-matrix", "asymptotics",
        "optimize"])
def test_fewer_than_two_points_exit_1(capsys, tmp_path, monkeypatch, args):
    # one rule in every subcommand: bad input, rejected before any computation
    one_csv = tmp_path / "one.csv"
    one_csv.write_text("re,im\n1.0,0.0\n")
    one_mat = tmp_path / "one.mat"
    write_matrix(one_mat, np.array([[2.0 - 1.0j]]))

    def forbidden(*unused, **kwargs):
        raise AssertionError("a report ran on fewer than two points")

    for name in ("condition_report", "condition_report_diagonal",
                 "perturbation_experiment", "optimize"):
        monkeypatch.setattr(eigencond.cli, name, forbidden)
    argv = [arg.format(csv=one_csv, mat=one_mat) for arg in args]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and ("n >= 2" in err or "two points" in err)


def _write_config(tmp_path):
    path = tmp_path / "three.csv"
    path.write_text("re,im\n0.0,0.0\n1.0,0.0\n2.0,0.0\n")
    return str(path)


def test_module_entry_point():
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    result = subprocess.run([sys.executable, "-m", "eigencond", "lattice", "--n", "2"],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "index,a,b,re,im,modulus"
    json.loads(result.stderr.splitlines()[-1])


def test_version_flag():
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    result = subprocess.run([sys.executable, "-m", "eigencond", "--version"],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0
    assert "eigencond" in result.stdout
