"""CLI surface tests: subcommands, output formats, exit codes."""

import json

import pytest

from gnmd import cli, sampler


def run_cli(args):
    return cli.main(args)


class TestThresholdCommand:
    def test_prints_table(self, capsys):
        assert run_cli(["threshold", "--dmax", "5"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert len(lines) == 5  # header + d = 2..5
        assert "inf" in lines[1]
        assert "1.2426407" in out
        assert "1.0578261" in out


class TestPredictCommand:
    def test_supercritical_text(self, capsys):
        assert run_cli(["predict", "--d", "3", "--mu", "1.5"]) == 0
        out = capsys.readouterr().out
        assert "phase=supercritical" in out
        assert "giant_fraction=" in out

    def test_subcritical_text(self, capsys):
        assert run_cli(["predict", "--d", "4", "--mu", "0.9"]) == 0
        out = capsys.readouterr().out
        assert "phase=subcritical" in out
        assert "giant_fraction" not in out

    def test_near_critical_warning(self, capsys):
        assert run_cli(["predict", "--d", "3", "--mu", "1.2426406871192854"]) == 0
        assert "near-critical" in capsys.readouterr().out

    def test_json_output(self, capsys):
        assert run_cli(["predict", "--d", "4", "--mu", "1.2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["phase"] == "supercritical"
        assert 0 < payload["giant_fraction"] < 1
        assert len(payload["probs"]) == 5

    def test_infinite_threshold_in_json(self, capsys):
        assert run_cli(["predict", "--d", "2", "--mu", "1.0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mu_critical"] == "inf"

    def test_domain_error_exit_code(self, capsys):
        assert run_cli(["predict", "--d", "3", "--mu", "5.0"]) == 1
        err = capsys.readouterr().err
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["error"] == "ValueError"


class TestSampleAndComponents:
    def test_sample_writes_readable_graph(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        assert run_cli([
            "sample", "--n", "100", "--m", "70", "--d", "4",
            "--seed", "5", "--out", str(out),
        ]) == 0
        g = sampler.read_graph(out)
        assert g.n == 100 and g.m == 70 and g.d == 4

    def test_sample_deterministic_file(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        for p in (p1, p2):
            run_cli(["sample", "--n", "50", "--m", "40", "--d", "4",
                     "--seed", "7", "--out", str(p)])
        assert p1.read_bytes() == p2.read_bytes()

    def test_components_text_and_json(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        run_cli(["sample", "--n", "60", "--m", "45", "--d", "4",
                 "--seed", "3", "--out", str(path)])
        capsys.readouterr()
        assert run_cli(["components", "--in", str(path)]) == 0
        out = capsys.readouterr().out
        assert "largest_fraction=" in out
        assert run_cli(["components", "--in", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 60
        assert sum(payload["sizes"]) == 60
        assert sum(i * c for i, c in enumerate(payload["degree_counts"])) == 90

    def test_infeasible_sample_fails_cleanly(self, tmp_path, capsys):
        assert run_cli(["sample", "--n", "4", "--m", "10", "--d", "2",
                        "--seed", "0", "--out", str(tmp_path / "x.txt")]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "infeasible" in payload["message"]

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert run_cli(["components", "--in", str(tmp_path / "nope.txt")]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] in ("FileNotFoundError", "OSError")


class TestSweepCommand:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run_cli([
            "sweep", "--d", "3", "--mu-from", "0.8", "--mu-to", "1.8",
            "--steps", "2", "--n", "150", "--trials", "2",
            "--seed", "11", "--out", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("d,mu,n,m,trials,predicted_theta")
        assert len(lines) == 3


class TestDuelCommand:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "duel.csv"
        assert run_cli([
            "duel", "--d", "4", "--mu-from", "0.9", "--mu-to", "1.4",
            "--steps", "2", "--n", "120", "--trials", "2",
            "--seed", "2", "--out", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("d,mu,n,m,trials,")
        assert "perc_mean_largest_frac" in lines[0]
        assert len(lines) == 3

    def test_odd_regular_degree_sum_is_one_json_error(self, tmp_path, capsys):
        out = tmp_path / "duel.csv"
        assert run_cli([
            "duel", "--d", "3", "--mu-from", "1.0", "--mu-to", "1.0",
            "--steps", "1", "--n", "11", "--trials", "1",
            "--seed", "1", "--out", str(out),
        ]) == 1
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "ValueError"
        assert "n=11, d=3" in payload["message"]
        assert captured.out == "" and not out.exists()

    def test_zero_trials_is_one_json_error(self, tmp_path, capsys):
        out = tmp_path / "duel.csv"
        assert run_cli([
            "duel", "--d", "4", "--mu-from", "1.2", "--mu-to", "1.2",
            "--steps", "1", "--n", "100", "--trials", "0",
            "--seed", "1", "--out", str(out),
        ]) == 1
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "ValueError"
        assert "trials" in payload["message"]
        assert captured.out == "" and not out.exists()


class TestOracleCommand:
    def test_count_and_uniformity(self, capsys):
        assert run_cli([
            "oracle", "--n", "4", "--m", "3", "--d", "2",
            "--trials", "2000", "--seed", "9",
        ]) == 0
        out = capsys.readouterr().out
        assert "count=16" in out
        assert "tv_distance=" in out
        assert "OK" in out
        fields = dict(
            token.split("=", 1)
            for line in out.splitlines()[1:]
            for token in line.split()
            if "=" in token
        )
        assert int(fields["never_sampled"]) == 0
        lo, hi = int(fields["observed_min"]), int(fields["observed_max"])
        assert 0 < lo <= 2000 / 16 <= hi
        wall, rate = float(fields["wall_s"]), float(fields["draws_per_s"])
        assert wall > 0 and rate > 0
        assert rate * wall == pytest.approx(2000, rel=0.01)

    def test_ensemble_file_blocks(self, tmp_path, capsys):
        out = tmp_path / "ens.txt"
        assert run_cli([
            "oracle", "--n", "3", "--m", "3", "--d", "2", "--out", str(out),
        ]) == 0
        blocks = out.read_text().strip().split("\n\n")
        assert len(blocks) == 1
        assert blocks[0].splitlines()[0] == "3 3 2"
