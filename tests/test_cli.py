"""Command-line interface: exit codes, file outputs, manifests."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gbtscore
from gbtscore import read_comparisons_csv, read_scores_csv
from gbtscore.cli import main


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestFit:
    def test_two_alternative_closed_form(self, tmp_path, capsys):
        inp = write(tmp_path / "pair.csv", "a,b,r\nx,y,1.0\n")
        rc = main(["fit", "--input", inp, "--model", "gaussian:sigma0sq=1.0",
                   "--sigma-sq", "1.0", "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        alts, values = read_scores_csv(tmp_path / "out" / "scores.csv")
        assert list(alts.ids) == ["x", "y"]
        assert values[0] == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert values[1] == pytest.approx(-1.0 / 3.0, abs=1e-9)
        report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
        assert report["converged"] is True
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["command"] == "fit"
        assert manifest["model"] == "gaussian:sigma0sq=1.0"
        assert manifest["sigma_sq"] == 1.0

    def test_all_zero_comparisons(self, tmp_path):
        inp = write(tmp_path / "z.csv", "a,b,r\nx,y,0.0\ny,z,0.0\n")
        rc = main(["fit", "--input", inp, "--model", "uniform",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        _, values = read_scores_csv(tmp_path / "out" / "scores.csv")
        assert np.array_equal(values, np.zeros(3))

    def test_duplicate_pair_exit_2_names_row(self, tmp_path, capsys):
        inp = write(tmp_path / "dup.csv", "a,b,r\nx,y,0.5\ny,x,-0.5\n")
        rc = main(["fit", "--input", inp, "--model", "uniform"])
        assert rc == 2
        assert "row 3" in capsys.readouterr().err

    def test_out_of_support_exit_4(self, tmp_path, capsys):
        inp = write(tmp_path / "oos.csv", "a,b,r\nx,y,1.5\n")
        rc = main(["fit", "--input", inp, "--model", "uniform"])
        assert rc == 4
        assert "support" in capsys.readouterr().err

    def test_non_finite_value_exit_2_names_row(self, tmp_path, capsys):
        inp = write(tmp_path / "nan.csv", "a,b,r\nx,y,0.5\ny,z,nan\n")
        rc = main(["fit", "--input", inp, "--model", "knary:K=3",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "row 3: non-finite comparison value" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["beta:beta=inf", "beta:beta=1e-17",
                                      "poisson:lambda=inf", "gaussian:sigma0sq=inf"])
    def test_unusable_model_parameter_exit_2(self, tmp_path, capsys, spec):
        inp = write(tmp_path / "p.csv", "a,b,r\nx,y,1.0\n")
        rc = main(["fit", "--input", inp, "--model", spec, "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "requires finite" in capsys.readouterr().err

    def test_nonconvergence_exit_3(self, tmp_path, capsys):
        rows = ["a,b,r"] + [f"n{i},n{j},0.8" for i in range(8) for j in range(i + 1, 8)]
        inp = write(tmp_path / "hard.csv", "\n".join(rows) + "\n")
        rc = main(["fit", "--input", inp, "--model", "uniform", "--max-iter", "1",
                   "--tolerance", "1e-14", "--out-dir", str(tmp_path / "out")])
        assert rc == 3
        report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
        assert report["converged"] is False

    @pytest.mark.parametrize("spec, tie", [("knary:K=5", 0.5), ("uniform", 0.5),
                                           ("beta2", 0.5), ("bernoulli", -1.0)])
    def test_unregularized_without_finite_scores_exit_3(self, tmp_path, capsys, spec, tie):
        inp = write(tmp_path / "top.csv", f"a,b,r\na0,a1,1\na0,a2,1\na1,a2,{tie}\n")
        for command in (["fit"], ["check", "--suite", "monotonicity"]):
            out = tmp_path / command[0]
            rc = main([*command, "--input", inp, "--model", spec, "--sigma-sq", "inf",
                       "--out-dir", str(out)])
            assert rc == 3
            assert "['a0'] (1 of 3 alternatives)" in capsys.readouterr().err
            assert not (out / "scores.csv").exists()

    def test_failure_report_is_success_report_plus_error(self, tmp_path):
        rows = ["a,b,r"] + [f"n{i},n{j},0.8" for i in range(8) for j in range(i + 1, 8)]
        inp = write(tmp_path / "hard.csv", "\n".join(rows) + "\n")
        reports = {}
        for name, extra in (("ok", []), ("failed", ["--max-iter", "1"])):
            out = tmp_path / name
            main(["fit", "--input", inp, "--model", "uniform", "--tolerance", "1e-14",
                  *extra, "--out-dir", str(out)])
            text = (out / "solve_report.json").read_text()
            reports[name] = json.loads(text)
            assert list(reports[name]) == sorted(reports[name])
            assert text.endswith("}\n")
        ok, failed = reports["ok"], reports["failed"]
        assert ok["converged"] is True and failed["converged"] is False
        assert set(failed) == set(ok) | {"error"}
        assert failed["iterations"] == 1
        assert failed["certified_error"] > 1e-14
        assert "no convergence" in failed["error"]

    def test_missing_model_exit_2(self, tmp_path):
        inp = write(tmp_path / "p.csv", "a,b,r\nx,y,0.5\n")
        assert main(["fit", "--input", inp]) == 2

    def test_unknown_model_exit_2(self, tmp_path):
        inp = write(tmp_path / "p.csv", "a,b,r\nx,y,0.5\n")
        assert main(["fit", "--input", inp, "--model", "frobnitz"]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["fit", "--input", str(tmp_path / "nope.csv"), "--model", "uniform"]) == 2

    @pytest.mark.parametrize("module", ["gbtscore", "gbtscore.cli"])
    def test_python_m_runs_the_cli(self, tmp_path, module):
        src = str(Path(gbtscore.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        command = ["fit", "--input", "missing.csv", "--model", "bernoulli"]
        done = subprocess.run([sys.executable, "-m", module, *command], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert "missing.csv" in done.stderr

    def test_non_utf8_bytes_exit_2(self, tmp_path, capsys):
        inp = tmp_path / "latin.csv"
        inp.write_bytes(b"a,b,r\nx,y,0.5\n\xff\xfe,z,0.1\n")
        rc = main(["fit", "--input", str(inp), "--model", "uniform"])
        assert rc == 2
        assert "error: row 3: not UTF-8" in capsys.readouterr().err

    def test_oversized_field_exit_2(self, tmp_path, capsys):
        inp = write(tmp_path / "long.csv", "a,b,r\nx,y,0.5\n" + "q" * 131073 + ",z,0.1\n")
        rc = main(["fit", "--input", inp, "--model", "uniform"])
        assert rc == 2
        assert "error: row 3: malformed CSV" in capsys.readouterr().err


class TestSample:
    def test_deterministic_and_valid(self, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        for out in (out1, out2):
            rc = main(["sample", "--model", "knary:K=5", "--a", "20", "--pc", "0.4",
                       "--seed", "11", "--out-dir", str(out)])
            assert rc == 0
        assert (out1 / "comparisons.csv").read_text() == (out2 / "comparisons.csv").read_text()
        assert (out1 / "ground_truth.csv").read_text() == (out2 / "ground_truth.csv").read_text()
        m = read_comparisons_csv(out1 / "comparisons.csv")
        pts = {-1.0, -0.5, 0.0, 0.5, 1.0}
        for a, b, v in m.iter_entries():
            assert v in pts
            assert m.value(b, a) == -v

    def test_edge_count_within_binomial_band(self, tmp_path):
        rc = main(["sample", "--model", "uniform", "--a", "40", "--pc", "0.3",
                   "--seed", "3", "--out-dir", str(tmp_path)])
        assert rc == 0
        m = read_comparisons_csv(tmp_path / "comparisons.csv")
        total = 40 * 39 // 2
        sd = math.sqrt(total * 0.3 * 0.7)
        assert abs(m.num_pairs - total * 0.3) < 5 * sd

    def test_from_scores_file(self, tmp_path):
        scores = write(tmp_path / "truth.csv", "a,theta\nu,0.5\nv,-0.5\nw,0.0\n")
        rc = main(["sample", "--model", "uniform", "--scores", scores, "--pc", "1.0",
                   "--seed", "5", "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        m = read_comparisons_csv(tmp_path / "out" / "comparisons.csv")
        assert m.num_pairs == 3
        echoed = (tmp_path / "out" / "ground_truth.csv").read_text()
        assert "u,0.5" in echoed

    def test_non_finite_score_exit_2_names_row(self, tmp_path, capsys):
        scores = write(tmp_path / "t.csv", "a,theta\nu,nan\nv,0.5\nw,0.0\n")
        rc = main(["sample", "--model", "knary:K=5", "--scores", scores, "--pc", "1.0",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "error: row 2: non-finite score value 'nan'" in capsys.readouterr().err
        assert not (tmp_path / "out" / "comparisons.csv").exists()

    def test_requires_exactly_one_source(self, tmp_path):
        assert main(["sample", "--model", "uniform", "--pc", "0.5"]) == 2
        scores = write(tmp_path / "t.csv", "a,theta\nu,0.5\n")
        assert main(["sample", "--model", "uniform", "--scores", scores,
                     "--a", "5", "--pc", "0.5"]) == 2

    def test_round_trip_recovers_scores(self, tmp_path):
        rc = main(["sample", "--model", "uniform", "--a", "30", "--pc", "0.6",
                   "--seed", "2", "--out-dir", str(tmp_path)])
        assert rc == 0
        rc = main(["fit", "--input", str(tmp_path / "comparisons.csv"),
                   "--model", "uniform", "--sigma-sq", "1.0",
                   "--out-dir", str(tmp_path / "fit")])
        assert rc == 0
        alts, est = read_scores_csv(tmp_path / "fit" / "scores.csv")
        alts2, truth = read_scores_csv(tmp_path / "ground_truth.csv")
        assert alts == alts2
        err = float(((est - truth) ** 2).sum() / (truth ** 2).sum())
        assert err < 0.5  # sanity coupling: same regime as the density sweep


class TestCheck:
    def test_monotonicity_passes(self, tmp_path, capsys):
        rc = main(["check", "--suite", "monotonicity", "--model", "uniform",
                   "--instances", "3", "--seed", "1", "--out-dir", str(tmp_path)])
        assert rc == 0
        assert "pass" in capsys.readouterr().out

    @pytest.mark.parametrize("spec, seed, instances", [
        ("bernoulli", "0", "3"), ("bernoulli", "2", "3"), ("knary:K=5", "3", "4")])
    def test_unregularized_monotonicity_redraws_bases(self, tmp_path, capsys, spec, seed,
                                                      instances):
        # these seeds drew bases with no finite scores: a Cholesky failure, or
        # false violations
        rc = main(["check", "--suite", "monotonicity", "--model", spec, "--sigma-sq", "inf",
                   "--seed", seed, "--instances", instances, "--out-dir", str(tmp_path)])
        assert rc == 0
        assert "pass" in capsys.readouterr().out

    @pytest.mark.parametrize("instances", ["0", "-3"])
    def test_no_instances_exit_2(self, tmp_path, capsys, instances):
        rc = main(["check", "--suite", "monotonicity", "--model", "bernoulli",
                   "--instances", instances, "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "--instances must be at least 1" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # beta=1e6 nodes
    @pytest.mark.parametrize("argv", [
        ["--suite", "monotonicity", "--model", "bernoulli", "--instances", "0"],
        ["--suite", "resilience", "--model", "bernoulli", "--input", "missing.csv"],
        ["--suite", "moments", "--model", "beta:beta=1e6"],
    ], ids=["no-instances", "missing-input", "non-finite-moments"])
    def test_rejected_check_creates_no_out_dir(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "o" / "x"
        assert main(["check", *argv, "--out-dir", str(out)]) == 2
        assert not (tmp_path / "o").exists()

    def test_resilience_bounded_passes(self, tmp_path, capsys):
        rc = main(["check", "--suite", "resilience", "--model", "knary:K=21",
                   "--sigma-sq", "1.0", "--probes", "25", "--seed", "2",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pass" in out
        assert (tmp_path / "resilience_probes.csv").exists()

    def test_resilience_unbounded_reports_without_failing(self, tmp_path, capsys):
        rc = main(["check", "--suite", "resilience", "--model", "gaussian:sigma0sq=1.0",
                   "--probes", "10", "--seed", "2", "--out-dir", str(tmp_path)])
        assert rc == 0
        assert "unbounded" in capsys.readouterr().out

    def test_resilience_large_poisson_lambda_converges(self, tmp_path, capsys):
        # edits draw from the untilted law, not uniformly from a +-10^4 grid
        rc = main(["check", "--suite", "resilience", "--model", "poisson:lambda=1e4",
                   "--probes", "50", "--out-dir", str(tmp_path)])
        assert rc == 0
        assert "50 probes" in capsys.readouterr().out

    @pytest.mark.parametrize("extra, probes", [
        (["--seed", "14"], 200),  # a random REMOVE cuts a bridge of a random base
        (["--seed", "327"], 200),  # the first random base is disconnected
        (["--input", "path.csv", "--probes", "20"], 20),  # every REMOVE cuts the path
    ])
    def test_unregularized_resilience_skips_disconnected_graphs(self, tmp_path, monkeypatch,
                                                                 extra, probes):
        monkeypatch.chdir(tmp_path)
        write(tmp_path / "path.csv", "a,b,r\nv,w,0.5\nw,x,-0.5\nx,y,0.0\ny,z,0.5\n")
        rc = main(["check", "--suite", "resilience", "--model", "uniform", "--sigma-sq", "inf",
                   *extra, "--out-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "resilience_probes.csv").read_text().splitlines()
        assert len(lines) == probes + 1

    def test_resilience_without_an_admissible_edit_exits_3(self, tmp_path):
        # the one pair can only change to +-1, which leaves no finite scores:
        # the probes give up on the base instead of drawing forever
        write(tmp_path / "two.csv", "a,b,r\nx,y,0\n")
        src = str(Path(gbtscore.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        command = ["check", "--suite", "resilience", "--model", "knary:K=3", "--sigma-sq", "inf",
                   "--input", "two.csv", "--probes", "5", "--out-dir", str(tmp_path / "o")]
        done = subprocess.run([sys.executable, "-m", "gbtscore", *command], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 3
        assert "no edit of the base keeps finite scores" in done.stderr

    def test_moments_pass(self, tmp_path, capsys):
        rc = main(["check", "--suite", "moments", "--model", "beta:beta=2.5",
                   "--seed", "4", "--out-dir", str(tmp_path)])
        assert rc == 0
        assert capsys.readouterr().out.count("pass") == 3

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # beta=1e6 nodes
    def test_non_finite_moments_exit_2(self, tmp_path, capsys):
        # an evaluation failure of the law, not a violated property (exit 5)
        rc = main(["check", "--suite", "moments", "--model", "beta:beta=1e6",
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "beta:beta=1000000.0" in err and "tilt -2" in err

    def test_non_finite_moments_print_only_the_error(self, tmp_path):
        # a fresh process: the Gauss-Jacobi rule is built, not taken from a cache
        src = str(Path(gbtscore.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        command = ["check", "--suite", "moments", "--model", "beta:beta=1e6",
                   "--out-dir", str(tmp_path / "o")]
        done = subprocess.run([sys.executable, "-m", "gbtscore", *command], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert done.stderr.splitlines() == [
            "error: model beta:beta=1000000.0 gives unusable moments at tilt -2 "
            "(mean nan, variance nan)"]

    def test_check_on_dataset(self, tmp_path, capsys):
        inp = write(tmp_path / "d.csv",
                    "a,b,r\nx,y,0.5\ny,z,-0.25\nx,z,0.75\nz,w,0.1\n")
        rc = main(["check", "--suite", "monotonicity", "--model", "uniform",
                   "--input", inp, "--out-dir", str(tmp_path)])
        assert rc == 0
        rc = main(["check", "--suite", "resilience", "--model", "uniform",
                   "--input", inp, "--probes", "10", "--out-dir", str(tmp_path)])
        assert rc == 0

    @pytest.mark.parametrize("suite", ["monotonicity", "resilience", "moments"])
    def test_writes_manifest(self, tmp_path, suite):
        outputs = ["resilience_probes.csv"] if suite == "resilience" else []
        out = tmp_path / "new" / "dir"
        rc = main(["check", "--suite", suite, "--model", "knary:K=5", "--instances", "2",
                   "--probes", "5", "--seed", "3", "--out-dir", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == f"check:{suite}"
        assert manifest["inputs"] == {"input": None, "instances": 2, "probes": 5}
        assert manifest["outputs"] == [str(out / name) for name in outputs]
        assert manifest["model"] == "knary:K=5" and manifest["seed"] == 3
        assert all((out / name).exists() for name in outputs)

    def test_manifest_names_input_dataset(self, tmp_path):
        inp = write(tmp_path / "d.csv", "a,b,r\nx,y,0.5\ny,z,-0.25\nx,z,0.75\n")
        rc = main(["check", "--suite", "resilience", "--model", "uniform",
                   "--input", inp, "--probes", "4", "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["inputs"] == {"input": inp, "instances": 10, "probes": 4}
        assert manifest["outputs"] == [str(tmp_path / "out" / "resilience_probes.csv")]

    def test_violation_exit_5(self, tmp_path, monkeypatch):
        # wire check: a reported bound excess must map to exit code 5
        import gbtscore.cli as cli_mod

        def fake(law, prior, config, options=None, base=None):
            from gbtscore.diagnostics import ProbeRecord, ResilienceProbe
            probe = ResilienceProbe(bound=1.0)
            probe.records = [ProbeRecord("change", "x|y", 1, 9.0, 9.0, 1.0)]
            probe.observed_ratio = 9.0
            return probe

        monkeypatch.setattr(cli_mod, "measure_resilience", fake)
        rc = main(["check", "--suite", "resilience", "--model", "uniform",
                   "--probes", "1", "--out-dir", str(tmp_path)])
        assert rc == 5


class TestExperiment:
    def test_sparsity_outputs(self, tmp_path, capsys):
        rc = main(["experiment", "--which", "sparsity", "--a", "14",
                   "--seeds", "1..3", "--out-dir", str(tmp_path)])
        assert rc == 0
        per_seed = (tmp_path / "sparsity_per_seed.csv").read_text().splitlines()
        assert per_seed[0] == "param,seed,norm_error"
        assert len(per_seed) == 1 + 5 * 3
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "experiment:sparsity"
        assert "threads" not in manifest

    def test_seed_list_forms(self, tmp_path):
        rc = main(["experiment", "--which", "regularization", "--a", "12",
                   "--seeds", "2,5", "--out-dir", str(tmp_path)])
        assert rc == 0
        rows = (tmp_path / "regularization_per_seed.csv").read_text().splitlines()[1:]
        seeds = {int(r.split(",")[1]) for r in rows}
        assert seeds == {2, 5}

    def test_bad_seed_list(self, tmp_path):
        assert main(["experiment", "--which", "sparsity", "--seeds", "x",
                     "--out-dir", str(tmp_path)]) == 2

    def test_threads_flag_gone(self, tmp_path):
        # seeds run in one plain loop; the old flag is an argparse error
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--which", "sparsity", "--threads", "2",
                  "--out-dir", str(tmp_path)])
        assert exc.value.code == 2

    def test_sweep_point_failures_exit_3(self, tmp_path, capsys):
        # unreachable tolerance: points are marked failed, run completes, exit 3
        rc = main(["experiment", "--which", "sparsity", "--a", "10",
                   "--seeds", "1", "--tolerance", "1e-15", "--max-iter", "1",
                   "--out-dir", str(tmp_path)])
        assert rc == 3
        assert "failed point" in capsys.readouterr().err
        assert (tmp_path / "sparsity_per_seed.csv").exists()


class TestConfigFile:
    def test_defaults_from_file_flags_win(self, tmp_path):
        cfg = write(tmp_path / "run.cfg", "sigma-sq = 2.0\nseed = 9\n# comment\n")
        inp = write(tmp_path / "p.csv", "a,b,r\nx,y,1.0\n")
        out = tmp_path / "out"
        rc = main(["fit", "--input", inp, "--model", "gaussian:sigma0sq=1.0",
                   "--config", cfg, "--out-dir", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["sigma_sq"] == 2.0
        assert manifest["seed"] == 9
        rc = main(["fit", "--input", inp, "--model", "gaussian:sigma0sq=1.0",
                   "--config", cfg, "--sigma-sq", "3.0", "--out-dir", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["sigma_sq"] == 3.0

    def test_unknown_key_exit_2_names_row(self, tmp_path, capsys):
        inp = write(tmp_path / "p.csv", "a,b,r\nx,y,1.0\n")
        for text, key, row in (("seed = 1\nsigma-sqq = 2.0\n", "sigma-sqq", 2),
                               ("# old flag\nseed = 1\nthreads = 2\n", "threads", 3)):
            cfg = write(tmp_path / "stale.cfg", text)
            rc = main(["fit", "--input", inp, "--model", "uniform", "--config", cfg,
                       "--out-dir", str(tmp_path / "out")])
            assert rc == 2
            assert f"row {row}: unknown config key '{key}'" in capsys.readouterr().err
        cfg = write(tmp_path / "value.cfg", "# seeds\nseed = x\n")
        assert main(["fit", "--input", inp, "--model", "uniform", "--config", cfg]) == 2
        assert "row 2: config value 'x' invalid for 'seed'" in capsys.readouterr().err
        # a key another subcommand defines is not an error
        cfg = write(tmp_path / "shared.cfg", "probes = 5\nwhich = sparsity\n")
        assert main(["fit", "--input", inp, "--model", "uniform", "--config", cfg,
                     "--out-dir", str(tmp_path / "out")]) == 0

    def test_malformed_config(self, tmp_path):
        cfg = write(tmp_path / "bad.cfg", "sigma-sq\n")
        inp = write(tmp_path / "p.csv", "a,b,r\nx,y,1.0\n")
        assert main(["fit", "--input", inp, "--model", "uniform", "--config", cfg]) == 2
