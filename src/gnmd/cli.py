"""Command-line front end.

Subcommands: threshold, predict, sample, components, sweep, duel, oracle.
Exit 0 on success; a runtime failure prints one JSON line to stderr, exit 1.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import components as components_mod
from . import experiments, giant, oracle, sampler
from .seeding import make_rng


def _cmd_threshold(args: argparse.Namespace) -> int:
    rows = experiments.threshold_rows(args.dmax)
    print(f"{'d':>3}  {'mu_critical':>12}  {'factorial_approx':>16}")
    for d, crit, approx in rows:
        crit_s = "inf" if math.isinf(crit) else f"{crit:.7f}"
        print(f"{d:>3}  {crit_s:>12}  {approx:>16.7f}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    pred = giant.predict(args.d, args.mu)
    if args.json:
        print(json.dumps(pred.to_json_dict()))
        return 0
    crit = "inf" if math.isinf(pred.mu_critical) else f"{pred.mu_critical:.7f}"
    print(f"d={pred.d} mu={pred.mu:.6g} lam={pred.law.lam:.10g}")
    print(f"molloy_reed_q={pred.q:.10g} mu_critical={crit}")
    print(f"phase={pred.phase.value}")
    if pred.near_critical:
        print("warning: near-critical; the dichotomy makes no claim this close "
              "to the threshold and the prediction is unreliable")
    if pred.phase is giant.Phase.SUPERCRITICAL:
        print(f"frontier_root={pred.frontier_root_x:.10g}")
        print(f"giant_fraction={pred.giant_fraction:.10g}")
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    g = sampler.sample_graph(args.n, args.m, args.d, make_rng(args.seed))
    sampler.write_graph(args.out, g)
    print(f"wrote {args.out}: n={g.n} m={g.m} d={g.d}")
    return 0


def _cmd_components(args: argparse.Namespace) -> int:
    g = sampler.read_graph(getattr(args, "in"))
    rep = components_mod.report(g)
    if args.json:
        print(json.dumps({
            "n": rep.n,
            "m": rep.m,
            "sizes": list(rep.sizes),
            "largest_fraction": rep.largest_fraction,
            "second_fraction": rep.second_fraction,
            "degree_counts": list(rep.degree_counts),
        }))
        return 0
    print(f"n={rep.n} m={rep.m} components={len(rep.sizes)}")
    print(f"largest_fraction={rep.largest_fraction:.6g} "
          f"second_fraction={rep.second_fraction:.6g}")
    shown = ", ".join(str(s) for s in rep.sizes[:10])
    suffix = ", ..." if len(rep.sizes) > 10 else ""
    print(f"sizes=[{shown}{suffix}]")
    print("degree_counts=" + " ".join(
        f"{i}:{c}" for i, c in enumerate(rep.degree_counts)))
    return 0


def _mu_grid(args: argparse.Namespace) -> list[float]:
    if args.steps < 1:
        raise ValueError(f"--steps must be >= 1, got {args.steps}")
    for flag, bound in (("--mu-from", args.mu_from), ("--mu-to", args.mu_to)):
        if not math.isfinite(bound):
            raise ValueError(f"{flag} must be finite, got {bound}")
    return list(np.linspace(args.mu_from, args.mu_to, args.steps))


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = experiments.SweepConfig(
        d=args.d,
        mu_grid=tuple(_mu_grid(args)),
        n=args.n,
        trials=args.trials,
        master_seed=args.seed,
    )
    rows = experiments.run_sweep(config)
    experiments.write_csv(rows, args.out)
    print(f"wrote {args.out}: {len(rows)} rows")
    return 0


def _cmd_duel(args: argparse.Namespace) -> int:
    rows = experiments.run_percolation_duel(
        args.d, _mu_grid(args), args.n, args.trials, args.seed
    )
    experiments.write_csv(rows, args.out)
    print(f"wrote {args.out}: {len(rows)} rows")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    ensemble = oracle.enumerate_graphs(args.n, args.m, args.d)
    # Test, write, then print: a failure leaves stdout empty, a bad --trials no file.
    if args.trials:
        start = time.perf_counter()
        rep = oracle.uniformity_test(ensemble, args.trials, args.seed)
        wall = time.perf_counter() - start
    if args.out:
        with open(args.out, "w") as fh:
            for row in ensemble.edge_codes:
                g = sampler.SimpleGraph(ensemble.n, ensemble.d, row)
                fh.write(sampler.format_graph(g) + "\n")
    print(f"ensemble count={ensemble.count}")
    if args.out:
        print(f"wrote ensemble to {args.out}")
    if args.trials:
        print(f"trials={rep.trials} tv_distance={rep.tv_distance:.6g}")
        print(f"chi_square={rep.chi_square:.6g} dof={rep.dof} "
              f"q999={rep.chi_square_q999:.6g} "
              f"{'OK' if rep.chi_square_ok else 'EXCEEDED'}")
        print(f"never_sampled={rep.never_sampled} observed_min={rep.observed_min} "
              f"observed_max={rep.observed_max}")
        print(f"wall_s={wall:.4g} draws_per_s={rep.trials / wall:.4g}")
    return 0


def _add_grid_arguments(p: argparse.ArgumentParser) -> None:
    """The arguments of a mean-degree grid experiment (sweep, duel)."""
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--mu-from", dest="mu_from", type=float, required=True)
    p.add_argument("--mu-to", dest="mu_to", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gnmd",
        description=(
            "Uniform sampling and phase analysis of random graphs with a "
            "fixed number of edges and bounded maximum degree."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("threshold", help="print the critical mean degree table")
    p.add_argument("--dmax", type=int, default=8)
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("predict", help="phase prediction for (d, mu)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("sample", help="sample one uniform graph to a file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("components", help="component report of a graph file")
    p.add_argument("--in", dest="in", required=True, metavar="FILE")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_components)

    p = sub.add_parser("sweep", help="Monte Carlo sweep over a mean-degree grid")
    _add_grid_arguments(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "duel", help="giant-component duel against percolated regular graphs"
    )
    _add_grid_arguments(p)
    p.set_defaults(func=_cmd_duel)

    p = sub.add_parser("oracle", help="enumerate tiny ensembles; test uniformity")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--trials", type=int, default=0,
                   help="sampler trials for the uniformity test (0 = skip)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="",
                   help="optional file for the full ensemble, one graph per block")
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
