"""The names that the benchmark's tracer wraps from outside must stay in gnmd.

bench/tracer.py skips a traced function that gnmd no longer has, and its
metrics silently drop out of a traced run.  These tests fail instead.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gnmd import components, sampler
from gnmd.seeding import make_rng

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def traced_modules():
    spec = importlib.util.spec_from_file_location("gnmd_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


def traced_functions():
    return [(mod, fn) for mod, fns in traced_modules().items() for fn in fns]


def test_package_binds_the_traced_modules_and_no_alias():
    # The tracer reads gnmd.<module> on the package that the bench imports,
    # and skips a missing module silently.  A function or class bound on the
    # package itself would be a second name that its patches never reach.
    code = (
        "import inspect, json, gnmd, gnmd.experiments\n"
        "print(json.dumps({\n"
        "    'modules': [k for k, v in vars(gnmd).items() if inspect.ismodule(v)],\n"
        "    'bound': [k for k, v in vars(gnmd).items()\n"
        "              if inspect.isroutine(v) or inspect.isclass(v)],\n"
        "}))\n"
    )
    src = Path(sampler.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, timeout=120,
        capture_output=True, text=True,
    ).stdout
    surface = json.loads(out)
    assert set(traced_modules()) <= set(surface["modules"])
    assert surface["bound"] == []


@pytest.mark.parametrize("mod, fn", traced_functions())
def test_traced_function_is_a_callable_of_gnmd(mod, fn):
    module = importlib.import_module(f"gnmd.{mod}")
    assert callable(getattr(module, fn, None)), f"gnmd.{mod}.{fn}"


def test_sample_graph_takes_stats_with_the_counted_fields():
    assert "stats" in inspect.signature(sampler.sample_graph).parameters
    stats = sampler.SamplerStats()
    for field in ("histogram_draws", "pairings", "simple"):
        assert getattr(stats, field) == 0


@pytest.mark.parametrize(
    "draw",
    [
        lambda: sampler.sample_graph(30, 20, 3, make_rng(1)),
        lambda: sampler.sample_graph(10, 15, 3, make_rng(2)),
        lambda: sampler.sample_edge_codes(6, 5, 3, 10, make_rng(3)),
    ],
    ids=["sample_graph", "sample_graph_regular", "sample_edge_codes"],
)
def test_stages_are_called_through_module_globals(monkeypatch, draw):
    # A wrapper installed on the module must see every stage of the kernel.
    calls = []
    for name in ("sample_degree_sequence", "pair_configuration", "is_simple"):
        stage = getattr(sampler, name)

        def wrapper(*args, _stage=stage, _name=name, **kwargs):
            calls.append(_name)
            return _stage(*args, **kwargs)

        monkeypatch.setattr(sampler, name, wrapper)
    draw()
    assert {"sample_degree_sequence", "pair_configuration", "is_simple"} <= set(calls)


def test_a_graph_offers_what_the_benchmark_checks_read():
    # bench/workloads.py check_graph and write_graph read these.
    g = sampler.sample_graph(200, 150, 4, make_rng(4))
    assert (g.n, g.m) == (200, 150)
    assert g.degrees().shape == (200,) and g.degrees().sum() == 300
    edges = g.edges
    assert edges.dtype == np.int64 and edges.shape == (g.m, 2)
    assert (edges == np.column_stack(np.divmod(g.codes, g.n))).all()
    assert (edges[:, 0] < edges[:, 1]).all()
    assert (np.lexsort((edges[:, 1], edges[:, 0])) == np.arange(g.m)).all()
    rep = components.report(g)
    assert sum(rep.sizes) == g.n and rep.m == g.m
