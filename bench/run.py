"""gnmd benchmark: run one workload in fresh processes and print its metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads: sweep, duel, oracle, analytic (see README.md); `all` runs each
in turn.  Every workload process starts from a fresh interpreter with gnmd
imported from the checkout's src/ and BLAS/OpenMP pinned to one thread.

With --trace 0 the last line of standard output is one JSON object with
the end-to-end metrics setup_s, ops_per_s, call_p50_ms and peak_rss_mb;
with --trace 1 it carries the per-layer metrics of a traced run instead.
setup_s is the median, over the measured process and SETUP_PROBES probe
processes run half before and half after it, of the time from spawning
the interpreter to having gnmd imported and the inputs built.  Each
result is also written, with nproc and the library versions, to
bench/out/.

The exit code is not 0, and no result is printed, when gnmd's source is
missing, a workload process fails or the run overruns its time limit.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("sweep", "duel", "oracle", "analytic")

#: Set-up-only processes per run, besides the measured process itself;
#: half run before it and half after, so that the median spans the run.
SETUP_PROBES = 6

#: Wall-clock allowance of one run beyond twice --seconds (a traced run
#: measures every round twice), for set-up probes, warm-up and checks.
RUN_MARGIN_S = 120.0

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


class BenchError(RuntimeError):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env(workload: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: "1" for var in THREAD_VARS})
    # Only the sweep runs gnmd's process pool; it gets one worker per core.
    env["GNMD_WORKERS"] = str(nproc() if workload == "sweep" else 1)
    return env


def spawn(args: list[str], env: dict[str, str], deadline: float) -> tuple[float, dict]:
    """Run workloads.py; return its spawn time and its JSON line."""
    cmd = [sys.executable, str(HERE / "workloads.py"), *args]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{' '.join(args)}: over the time limit")
    finally:
        # Reap anything the workload left in its session (pool workers).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)}: exit code {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"{' '.join(args)}: no output")
    return started, json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of one workload: the measured process between set-up probes."""
    deadline = time.monotonic() + 2 * seconds + RUN_MARGIN_S
    env = worker_env(workload)
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []

    def probes(count: int) -> None:
        for _ in range(0 if trace else count):
            started, probe = spawn([*base, "--probe"], env, deadline)
            setups.append(probe["ready"] - started)

    probes(SETUP_PROBES // 2)
    started, res = spawn(
        [*base, "--seconds", str(seconds), "--trace", str(trace)], env, deadline
    )
    setups.append(res["ready"] - started)
    probes(SETUP_PROBES - SETUP_PROBES // 2)
    if trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in res["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": res["ops_per_s"], "unit": "ops/s"},
            "call_p50_ms": {"value": res["call_p50_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    result = {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        **result,
        "problems": res["problems"],
        "rounds": res["rounds"],
        "round_s": res["round_s"],
        "calls": res["calls"],
        "setups_s": setups,
        "nproc": nproc(),
        "gnmd_workers": env["GNMD_WORKERS"],
        "versions": res["versions"],
    }
    path = OUT / f"result-{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for problem in res["problems"]:
        print(f"{workload}: {problem}", file=sys.stderr)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "gnmd" / "__init__.py").is_file():
        print(f"gnmd source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
            if len(names) > 1:
                print(f"{name}: {json.dumps(results[name])}")
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
