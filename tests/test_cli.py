"""CLI surface tests: subcommands, output formats, exit codes."""

import builtins
import contextlib
import io
import itertools
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from gnmd import cli, experiments, giant, oracle, sampler


def run_cli(args):
    return cli.main(args)


# The failures the commands are meant to report.  cli.main catches every
# Exception, so a warning raised under the suite's filterwarnings, numpy's
# LinAlgError or a programming error (IndexError, TypeError, ...) would also
# end as one JSON line; one_json_error fails on those.
EXPECTED_FAILURES = (ValueError, OSError, OverflowError, MemoryError, sampler.SamplingError)


def one_json_error(err):
    """The error payload of stderr that holds exactly one JSON line."""
    lines = err.splitlines()
    assert len(lines) == 1, err
    payload = json.loads(lines[0])
    assert set(payload) == {"error", "message"}
    name = payload["error"]
    kind = getattr(builtins, name, None) or getattr(sampler, name, None)
    assert isinstance(kind, type) and issubclass(kind, EXPECTED_FAILURES), payload
    return payload


def run_quietly(args):
    """(exit code, stdout, stderr) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


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
        assert list(payload) == [
            "d", "mu", "lam", "q", "mu_critical", "degree_mean", "phase",
            "near_critical", "frontier_root", "giant_fraction", "probs",
        ]
        assert payload["lam"] == giant.predict(4, 1.2).law.lam
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

    def test_edgeless_sample_round_trips_as_isolated_vertices(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        assert run_cli(["sample", "--n", "5", "--m", "0", "--d", "3",
                        "--seed", "0", "--out", str(path)]) == 0
        assert path.read_text() == "5 0 3\n"
        capsys.readouterr()
        assert run_cli(["components", "--in", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sizes"] == [1] * 5 and payload["degree_counts"] == [5, 0, 0, 0]

    def test_components_histogram_stops_at_n_minus_one(self, tmp_path, capsys):
        # A header bound past n - 1 once sized the degree histogram: this
        # file printed ten million counts.
        path = tmp_path / "wide.txt"
        path.write_text("3 0 10000000\n")
        assert run_cli(["components", "--in", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["degree_counts"] == [3, 0, 0]

    def test_infeasible_sample_fails_cleanly(self, tmp_path, capsys):
        assert run_cli(["sample", "--n", "4", "--m", "10", "--d", "2",
                        "--seed", "0", "--out", str(tmp_path / "x.txt")]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "infeasible" in payload["message"]

    def test_sampling_error_is_one_json_error(self, tmp_path, capsys):
        # 2m <= d*n, but no simple graph on 3 vertices has 4 edges: every
        # pairing is rejected until the restart cap.
        out = tmp_path / "g.txt"
        assert run_cli(["sample", "--n", "3", "--m", "4", "--d", "3",
                        "--seed", "0", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert one_json_error(captured.err)["error"] == "SamplingError"
        assert captured.out == "" and not out.exists()

    def test_vertexless_graph_is_one_json_error(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("0 0 2\n")
        assert run_cli(["components", "--in", str(path), "--json"]) == 1
        captured = capsys.readouterr()
        assert "vertex" in one_json_error(captured.err)["message"]
        assert captured.out == ""

    def test_edge_lines_under_an_edgeless_header_are_one_json_error(self, tmp_path, capsys):
        path = tmp_path / "extra.txt"
        path.write_text("3 0 2\n0 1\n0 2\n")
        assert run_cli(["components", "--in", str(path)]) == 1
        captured = capsys.readouterr()
        assert "expected 0 edge lines" in one_json_error(captured.err)["message"]
        assert captured.out == ""

    def test_memory_error_is_one_json_error(self, tmp_path, monkeypatch, capsys):
        def read_graph(path):
            raise MemoryError("cannot allocate")

        monkeypatch.setattr(sampler, "read_graph", read_graph)
        assert run_cli(["components", "--in", str(tmp_path / "g.txt")]) == 1
        captured = capsys.readouterr()
        assert one_json_error(captured.err) == {
            "error": "MemoryError", "message": "cannot allocate"
        }
        assert captured.out == ""

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

    def test_one_step_is_one_row_at_mu_from(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run_cli([
            "sweep", "--d", "3", "--mu-from", "0.8", "--mu-to", "1.8",
            "--steps", "1", "--n", "150", "--trials", "2",
            "--seed", "11", "--out", str(out),
        ]) == 0
        header, *rows = out.read_text().splitlines()
        assert len(rows) == 1 and rows[0].startswith("3,0.8,150,60,2,")


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

    def test_too_few_vertices_for_the_regular_side_is_one_json_error(
        self, tmp_path, capsys, monkeypatch
    ):
        def sample_graph(*args, **kwargs):
            raise AssertionError("a graph was sampled before the input check")

        monkeypatch.setattr(experiments.sampler, "sample_graph", sample_graph)
        out = tmp_path / "duel.csv"
        assert run_cli([
            "duel", "--d", "4", "--mu-from", "1.0", "--mu-to", "1.0",
            "--steps", "1", "--n", "2", "--trials", "1",
            "--seed", "0", "--out", str(out),
        ]) == 1
        captured = capsys.readouterr()
        assert "n=2, d=4" in one_json_error(captured.err)["message"]
        assert captured.out == "" and not out.exists()

    def test_decreasing_grid_is_one_json_error(self, tmp_path, capsys):
        # The duel checks its grid as the sweep does.
        out = tmp_path / "duel.csv"
        assert run_cli([
            "duel", "--d", "4", "--mu-from", "1.5", "--mu-to", "1.0",
            "--steps", "2", "--n", "12", "--trials", "1",
            "--seed", "0", "--out", str(out),
        ]) == 1
        captured = capsys.readouterr()
        assert "strictly increasing" in one_json_error(captured.err)["message"]
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
        # Any two of the six edges of K4 keep every degree <= 2, so the
        # ensemble is all 15 pairs, in lexicographic order.
        out = tmp_path / "ens.txt"
        assert run_cli([
            "oracle", "--n", "4", "--m", "2", "--d", "2", "--out", str(out),
        ]) == 0
        pairs = itertools.combinations(itertools.combinations(range(4), 2), 2)
        assert out.read_text() == "".join(
            f"4 2 2\n{a} {b}\n{c} {e}\n\n" for (a, b), (c, e) in pairs
        )
        ensemble = oracle.enumerate_graphs(4, 2, 2)
        blocks = out.read_text().strip().split("\n\n")
        assert len(blocks) == ensemble.count == 15
        for i, (block, row) in enumerate(zip(blocks, ensemble.edge_codes)):
            path = tmp_path / f"graph{i}.txt"
            path.write_text(block + "\n")
            assert sampler.read_graph(path).codes.tolist() == row.tolist()

    def test_rejected_trial_count_prints_and_writes_nothing(self, tmp_path):
        # 85 graphs need at least 8500 trials: the command fails before it
        # prints the count or writes the ensemble.
        out = tmp_path / "ens.txt"
        code, stdout, err = run_quietly([
            "oracle", "--n", "5", "--m", "4", "--d", "2", "--out", str(out),
            "--trials", "100", "--seed", "0",
        ])
        assert code == 1 and stdout == "" and not out.exists()
        assert "at least 8500 trials" in one_json_error(err)["message"]

    def test_unwritable_out_prints_nothing(self, tmp_path):
        # The count prints only after --out is written, so stdout stays empty.
        code, stdout, err = run_quietly([
            "oracle", "--n", "3", "--m", "1", "--d", "2", "--out", str(tmp_path),
            "--trials", "300", "--seed", "0",
        ])
        assert code == 1 and stdout == ""
        assert one_json_error(err)["error"] == "IsADirectoryError"


# -- every failure is one JSON line on stderr and exit code 1 ------------------

_labels = st.integers(-1, 7)
_edge_line = st.one_of(
    st.tuples(_labels, _labels).map(lambda e: f"{e[0]} {e[1]}"),
    st.lists(_labels, max_size=3).map(lambda t: " ".join(map(str, t))),
    st.sampled_from(["a b", "0.5 1", "1 x"]),
)
_header = st.one_of(
    st.tuples(st.integers(-1, 6), st.integers(-1, 5), st.integers(-1, 4)).map(
        lambda h: "%d %d %d" % h
    ),
    st.lists(st.integers(-1, 6), max_size=4).map(lambda t: " ".join(map(str, t))),
    st.sampled_from(["", "n m d", "3 2.0 2"]),
)


@st.composite
def _grid_break(draw):
    """(command, argument, value): one sweep or duel argument out of range."""
    command = draw(st.sampled_from(["sweep", "duel"]))
    outside_mu = st.one_of(
        st.floats(max_value=0.0), st.floats(min_value=4.0), st.just(math.nan)
    )
    breaks = {
        "d": st.integers(-3, 1 if command == "sweep" else 2),
        "n": st.integers(-5, 9) if command == "sweep" else st.integers(-5, 4),
        "trials": st.integers(-5, 0),
        "steps": st.integers(-5, 0),
        "mu-from": outside_mu,
        "mu-to": outside_mu,
    }
    name = draw(st.sampled_from(sorted(breaks)))
    return command, name, draw(breaks[name])


# A numpy warning on the way to a failure would print before its JSON line.
@pytest.mark.filterwarnings("error")
class TestFailuresAreOneJsonLine:
    @settings(max_examples=80, deadline=None)
    @given(header=_header, edges=st.lists(_edge_line, max_size=5))
    @example(header="0 0 2", edges=[])
    @example(header="10000000000000 0 2", edges=[])
    @example(header="3 0 2", edges=["0 1", "0 2"])
    @example(header="3 2 2", edges=["0 1"])
    @example(header="3 1 2", edges=["1 0"])
    @example(header="3 2 2", edges=["0 2", "0 1"])
    @example(header="3 1 2", edges=["0 3"])
    def test_components(self, tmp_path_factory, header, edges):
        path = tmp_path_factory.mktemp("graph") / "g.txt"
        path.write_text("\n".join([header, *edges]) + "\n")
        code, out, err = run_quietly(["components", "--in", str(path), "--json"])
        if code == 0:
            # A well-formed file: its report is one JSON line on stdout.
            assert err == "" and len(out.splitlines()) == 1
            assert json.loads(out)["n"] >= 1
        else:
            assert code == 1 and out == ""
            one_json_error(err)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(-2, 40), m=st.integers(-2, 60), d=st.integers(-1, 6))
    @example(n=10**20, m=1, d=2)
    @example(n=2**63, m=1, d=2)
    def test_sample(self, tmp_path_factory, n, m, d):
        path = tmp_path_factory.mktemp("sample") / "g.txt"
        argv = ["sample", f"--n={n}", f"--m={m}", f"--d={d}", "--seed=0", f"--out={path}"]
        code, out, err = run_quietly(argv)
        if code == 0:
            assert err == "" and len(out.splitlines()) == 1
            g = sampler.read_graph(path)
            assert (g.n, g.m) == (n, m)
        else:
            assert code == 1 and out == "" and not path.exists()
            one_json_error(err)

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.one_of(st.integers(-3, 40), st.sampled_from([170, 190, 400])),
        mu=st.one_of(
            st.floats(-10, 50), st.sampled_from([math.nan, math.inf, -math.inf, 0.0])
        ),
    )
    @example(d=190, mu=1.5)
    def test_predict(self, d, mu):
        code, out, err = run_quietly(["predict", f"--d={d}", f"--mu={mu!r}", "--json"])
        if code == 0:
            assert err == "" and 0.0 < json.loads(out)["mu"] < d
        else:
            assert code == 1 and out == ""
            one_json_error(err)

    @settings(max_examples=60, deadline=None)
    @given(case=_grid_break())
    @example(case=("sweep", "mu-to", math.inf))
    @example(case=("duel", "mu-from", -math.inf))
    def test_grid_commands_with_one_argument_out_of_range(self, tmp_path_factory, case):
        # A valid small grid with one argument broken; every break is
        # caught before any graph is sampled.
        command, name, value = case
        args = {"d": 4, "mu-from": 1.0, "mu-to": 1.5, "steps": 2, "n": 12, "trials": 1}
        args[name] = value
        out_path = tmp_path_factory.mktemp(command) / "rows.csv"
        argv = [command, *(f"--{k}={v!r}" for k, v in args.items())]
        code, out, err = run_quietly([*argv, "--seed=0", f"--out={out_path}"])
        assert code == 1 and out == "" and not out_path.exists()
        message = one_json_error(err)["message"]
        if name.startswith("mu") and math.isinf(value):
            assert f"--{name} must be finite, got {value}" in message
