"""Tests of the benchmark's own references and tracer.

    python3 -m pytest bench/test_bench.py -q

They import no gnmd code: the references must stand apart from the
program they check, and the tracer is exercised on a stand-in package.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import tracer as tracer_mod  # noqa: E402


# -- closed forms the references must reproduce ------------------------------


def test_critical_mean_degree_d3_closed_form():
    assert ref.critical_mean_degree(3) == pytest.approx(3 * (math.sqrt(2) - 1), rel=1e-13)


def test_critical_mean_degree_d2_is_infinite():
    assert ref.critical_mean_degree(2) == math.inf


def test_critical_mean_degree_tends_to_one():
    values = [ref.critical_mean_degree(d) for d in range(3, 10)]
    assert all(a > b > 1.0 for a, b in zip(values, values[1:]))


def test_percolated_regular_giant_d4_half_closed_form():
    golden = (math.sqrt(5) - 1) / 2
    assert ref.percolated_regular_giant(4, 2.0) == pytest.approx(1 - golden**4, rel=1e-12)


def test_percolated_regular_giant_vanishes_below_threshold():
    assert ref.percolated_regular_giant(4, 4 / 3 - 1e-9) == 0.0
    assert ref.percolated_regular_giant(4, 1.2) == 0.0
    assert ref.percolated_regular_giant(4, 1.4) > 0.0


def test_degree_law_has_requested_mean():
    for d, mu in [(3, 0.5), (4, 1.2), (8, 7.9)]:
        probs = ref.degree_law(d, mu)
        assert probs.shape == (d + 1,)
        assert probs.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.arange(d + 1) @ probs == pytest.approx(mu, rel=1e-12)


def test_giant_fraction_two_point_law():
    # p1 = p3 = 1/2: xi = G1(xi) has root 1/3, theta = 1 - (1/6 + 1/54).
    assert ref.giant_fraction([0, 0.5, 0, 0.5]) == pytest.approx(44 / 54, rel=1e-13)


def test_giant_fraction_regular_law_is_one():
    assert ref.giant_fraction([0, 0, 0, 1.0]) == pytest.approx(1.0, abs=1e-15)


def test_giant_fraction_poisson_limit():
    # Far from the truncation the law is Poisson(mu): theta = 1 - exp(-mu theta).
    mu = 2.0
    theta = ref.giant_fraction(ref.degree_law(24, mu))
    assert theta == pytest.approx(1 - math.exp(-mu * theta), abs=1e-9)
    assert theta == pytest.approx(0.7968121300200202, abs=1e-9)


def test_giant_fraction_subcritical_is_zero():
    assert ref.giant_fraction(ref.degree_law(4, 1.0)) == 0.0
    assert ref.giant_fraction(ref.degree_law(4, 1.1)) > 0.0


def test_giant_fraction_dense_regime_root():
    # The size-biased fixed point, checked by substitution.
    probs = ref.degree_law(8, 5.0)
    theta = ref.giant_fraction(probs)
    i = np.arange(probs.size)
    # Recover xi from theta's definition by solving G1(x) = x directly.
    g1 = lambda x: float((i[1:] * probs[1:]) @ x ** (i[1:] - 1)) / float(i @ probs)  # noqa: E731
    lo, hi = 0.0, 0.5
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if g1(mid) > mid else (lo, mid)
    assert 1 - theta == pytest.approx(float(probs @ lo**i), rel=1e-9)
    assert theta == pytest.approx(0.995450, abs=1e-6)


# -- graphs ------------------------------------------------------------------


def test_component_sizes_by_networkx():
    edges = np.array([[0, 1], [1, 2], [3, 4], [4, 5], [3, 5]])
    assert ref.component_sizes(7, edges) == [3, 3, 1]


def test_graph_defects():
    good = np.array([[0, 1], [1, 2]])
    assert ref.graph_defects(3, 2, 2, good) == []
    assert ref.graph_defects(3, 3, 2, good) == ["2 edges, expected 3"]
    assert ref.graph_defects(3, 2, 2, np.array([[0, 0], [1, 2]])) == ["loop"]
    assert ref.graph_defects(3, 2, 2, np.array([[0, 1], [1, 0]])) == ["repeated edge"]
    assert ref.graph_defects(4, 3, 2, np.array([[0, 1], [0, 2], [0, 3]])) == [
        "a vertex exceeds degree 2"
    ]


def test_tiny_ensemble_counts():
    assert len(ref.tiny_ensemble(4, 2, 1)) == 3  # perfect matchings of K4
    assert len(ref.tiny_ensemble(4, 3, 2)) == math.comb(6, 3) - 4  # all but stars


def test_tiny_ensemble_653_by_inclusion_exclusion():
    # 5 edges on 6 vertices; a vertex of degree 5 takes all 5 edges, one of
    # degree 4 takes 4 of its 5 edges plus one of the C(5,2) others, and
    # two vertices cannot both exceed 3.
    bad = 6 * (1 + 5 * math.comb(5, 2))
    graphs = ref.tiny_ensemble(6, 5, 3)
    assert len(graphs) == math.comb(15, 5) - bad == 2697
    assert all(len(g) == 5 and len(set(g)) == 5 for g in graphs)


def test_degree_histogram_bound():
    assert ref.degree_histogram_bound([0.5, 0.5], 100, z=6.0) == pytest.approx(0.31)


def test_chi_square_quantile_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    for dof, tail in [(2696, 1e-3), (2696, 1e-9), (500, 1e-6)]:
        assert ref.chi_square_quantile(dof, tail) == pytest.approx(
            stats.chi2.isf(tail, dof), rel=1e-3
        )


# -- tracer ------------------------------------------------------------------

SAMPLER_SOURCE = '''
import time

class SamplingError(RuntimeError):
    pass

class SamplerStats:
    def __init__(self):
        self.histogram_draws = self.pairings = self.simple = 0

def sample_degree_sequence(n, m, d, rng, stats=None):
    time.sleep(0.02)
    if stats is not None:
        stats.histogram_draws += 256
    return n

def sample_graph(n, m, d, rng, stats=None):
    if m > n:
        raise SamplingError("no simple pairing")
    for _ in range(3):
        sample_degree_sequence(n, m, d, rng, stats)
        if stats is not None:
            stats.pairings += 1
    if stats is not None:
        stats.simple += 1
    time.sleep(0.01)
    return (n, m)
'''


def stand_in_package():
    """A package with a sampler module shaped like gnmd's, minus is_simple."""
    sampler = types.ModuleType("sampler")
    exec(SAMPLER_SOURCE, sampler.__dict__)
    return types.SimpleNamespace(sampler=sampler)


def test_tracer_spans_self_time_and_counts(tmp_path):
    pkg = stand_in_package()
    original = pkg.sampler.sample_graph
    tr = tracer_mod.Tracer(pkg, tmp_path)
    tr.install()
    assert pkg.sampler.sample_graph(10, 5, 3, None) == (10, 5)
    with pytest.raises(pkg.sampler.SamplingError):
        pkg.sampler.sample_graph(10, 50, 3, None)
    tr.uninstall()
    assert pkg.sampler.sample_graph is original
    pkg.sampler.sample_graph(10, 5, 3, None)  # untraced: no new spans

    metrics = {k: v for k, (v, _) in tr.layer_metrics(ops=2).items()}
    assert metrics["sampler.sample_graph.calls"] == 1.0
    assert metrics["sampler.sample_degree_sequence.calls"] == 1.5
    # The successful call's 10 ms sleep is its own, its children's 3 x 20 ms
    # are not; the failing call returns at once.  Mean self time: ~5 ms.
    assert 4 <= metrics["sampler.sample_graph.self_ms"] <= 8
    assert metrics["sampler.sample_degree_sequence.self_ms"] >= 18
    assert metrics["sampler.pairings_per_graph"] == 3.0
    assert metrics["sampler.simplicity_rate"] == pytest.approx(1 / 3)
    assert metrics["sampler.histogram_draws_per_sequence"] == 256.0
    assert metrics["sampler.sampling_errors"] == 0.5
    # A function the package no longer has is skipped, not an error.
    assert not any(k.startswith("sampler.is_simple") for k in metrics)


def _call_in_child(pkg):
    pkg.sampler.sample_graph(10, 5, 3, None)


def test_tracer_collects_spans_of_forked_workers(tmp_path):
    pkg = stand_in_package()
    tr = tracer_mod.Tracer(pkg, tmp_path)
    tr.install()

    def run_child():
        child = multiprocessing.get_context("fork").Process(target=_call_in_child, args=(pkg,))
        child.start()
        child.join(timeout=30)
        assert child.exitcode == 0

    started = time.perf_counter_ns()
    tr._span("experiments.run_sweep", run_child, (), {})
    tr.uninstall()
    tr.collect()
    assert [s[2] for s in tr.spans].count("sampler.sample_graph") == 1
    parent = next(s for s in tr.spans if s[2] == "experiments.run_sweep")
    child = next(s for s in tr.spans if s[2] == "sampler.sample_graph")
    assert child[1] == parent[0] and child[3] >= started
    assert tr.counters["sampler.pairings"] == 3
    assert not list(tmp_path.iterdir())


def test_covered_merges_overlapping_children():
    assert tracer_mod._covered(0, 100, [(10, 40), (20, 50), (60, 70), (90, 120)]) == 60


def test_benchmark_json_lists_every_tracer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in spec["per_layer"]}
    assert listed == set(tracer_mod.metric_names()) | {"trace.overhead_pct"}
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "ops_per_s", "call_p50_ms", "peak_rss_mb"
    }
    assert [w["name"] for w in spec["workloads"]] == ["sweep", "duel", "oracle", "analytic"]
