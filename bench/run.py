"""Benchmark of one cilab iteration step.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): `verified_step`, the full verified step on a
16 x 48^3 grid, and `sparse_build`, the unchecked construction path on a
16 x 64^3 grid with stresses confined to a quarter of the time slices.

Every step runs in a fresh process with cilab's default FFT thread count
(CILAB_THREADS is removed from its environment). With --trace 0 the run
starts SETUP_SAMPLES set-up-only processes, half before the steps and half
after them, repeats steps until S seconds have passed (at least one), and
reports the end-to-end metrics: median step_s, setup_s and peak_rss_mb, and
the fraction of identity checks that failed. setup_s comes from the set-up
processes only; a step process's own set-up, the first in a cold run, is
left out. With --trace 1 it runs one traced step and reports its per-layer
metrics, the kernel microbenchmarks and the tracer's own time.

The last stdout line is {"correct", "attempted", "failed", "metrics"};
the line before it records the machine and the raw samples. `attempted`
counts steps; a step that raises anything but a typed check rejection
makes the command exit non-zero without a result, so `failed` stays 0.
`correct` holds when the benchmark's own output checks pass in every step.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

# set-up processes cost about a second each; ten spread over a run damp
# the host's minute-scale drift that a few back-to-back samples follow
SETUP_SAMPLES = 10
# a run must end within three minutes
TIME_LIMIT_S = 178.0


def unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in ("peak_mb", "peak_rss_mb"):
        return "MB"
    if last in ("s", "self_s", "step_s", "setup_s", "overhead_s"):
        return "s"
    if last == "checks_failed":
        return "fraction"
    if last == "computed_bytes":
        return "B"
    return "count"


def _child(args, env, deadline):
    """Run one child process to completion and return its JSON result."""
    proc = subprocess.run([sys.executable, CHILD, *args], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - perf_counter()))
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _machine(env):
    def getconf(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True,
                                 text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return None
        return int(out) if out.isdigit() else None

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "ram_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "cache_bytes": {name: getconf(f"{name}_SIZE") for name in (
            "LEVEL1_DCACHE", "LEVEL2_CACHE", "LEVEL3_CACHE")},
        "cilab_threads_removed": env.get("CILAB_THREADS"),
    }


def _end_to_end(steps, setups):
    attempted = sum(len(s["checks_attempted"]) for s in steps)
    failed = sum(len(s["checks_failed"]) for s in steps)
    return {
        "step_s": statistics.median(s["step_s"] for s in steps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in steps),
        "checks_failed": failed / attempted,
    }


def _problems(step):
    found = list(step["problems"])
    if step["inputs_rss_mb"] >= step["peak_rss_mb"]:
        found.append("input generation set the peak RSS")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cilab", "__init__.py")):
        print(f"no cilab sources under {ROOT}/src", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k != "CILAB_THREADS"}
    deadline = perf_counter() + TIME_LIMIT_S
    step_args = ["step", args.workload, str(args.seed)]
    try:
        if args.trace:
            steps = [_child(step_args + ["1"], env, deadline)]
            metrics = steps[0]["per_layer"]
        else:
            setups = [_child(["setup"], env, deadline)["setup_s"]
                      for _ in range(SETUP_SAMPLES // 2)]
            start = perf_counter()
            steps = [_child(step_args + ["0"], env, deadline)]
            while perf_counter() - start < args.seconds:
                steps.append(_child(step_args + ["0"], env, deadline))
            setups += [_child(["setup"], env, deadline)["setup_s"]
                       for _ in range(SETUP_SAMPLES - len(setups))]
            metrics = _end_to_end(steps, setups)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    problems = [p for s in steps for p in _problems(s)]
    for p in problems:
        print(f"output check failed: {p}", file=sys.stderr)
    info = {"machine": _machine(os.environ),
            "fft_workers": steps[0]["fft_workers"],
            "numpy": steps[0]["numpy"], "scipy": steps[0]["scipy"],
            "steps": [{k: v for k, v in s.items() if k != "per_layer"}
                      for s in steps]}
    if not args.trace:
        info["setup_samples"] = setups
    print(json.dumps(info))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(steps),
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
