"""midconv benchmark: one workload per call, each in fresh interpreters.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics, with ``--trace 1`` one with the per-layer metrics.
Details of every run (per-operation latencies, cold-start samples, span
files) go to ``perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("classify-stream", "matrix-mc", "decompose-connect", "enumerate")

# Cold starts per run; setup_s is their median.
COLD_STARTS = 7
# -X importtime runs per traced run; the cli.* metrics are their medians.
IMPORT_RUNS = 3
CHILD_TIMEOUT_S = 150

PER_LAYER = (
    "cli.import_ms", "cli.import_sympy_ms", "cli.import_numpy_ms",
    "katz.reduce.calls", "katz.reduce.self_ms", "katz.reduce.steps",
    "katz.classify.self_ms", "spectype.canonicalize.calls", "spectype.canonicalize.self_ms",
    "connection.rigid_grid.tests", "connection.rigid_grid.accepted",
    "rootlattice.classify_root.calls", "rootlattice.classify_root.self_ms",
    "rootlattice.reflect.calls", "connection.rigid_decompositions.self_ms",
    "connection.connection_formula.self_ms", "connection.evaluate.self_ms",
    "linalg.rank.calls", "linalg.rank.self_ms", "linalg.rref.calls", "linalg.rref.self_ms",
    "linalg.matmul.calls", "linalg.matmul.self_ms", "linalg.charpoly.calls",
    "linalg.charpoly.self_ms", "linalg.inverse.calls", "linalg.inverse.self_ms",
    "linalg.matmul.scalar_mults", "linalg.max_entry_bits",
    "matrixmc.rational_eigenvalues.calls", "matrixmc.rational_eigenvalues.self_ms",
    "matrixmc.middle_convolution.calls", "matrixmc.middle_convolution.self_ms",
    "matrixmc.quotient.self_ms", "matrixmc.spectral_data_of.self_ms",
    "matrixmc.orbit_dims.self_ms", "matrixmc.construct.attempts",
    "matrixmc.construct.accepted",
    "enumeration.candidates", "enumeration.classes", "enumeration.multisets.self_ms",
    "enumeration.reduces_to_one.calls", "enumeration.reduces_to_one.self_ms",
    "enumeration.make_report.self_ms",
    "trace.overhead_s",
)


def unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "bits" if name.endswith("_bits") else "count"


class BenchError(RuntimeError):
    pass


def child(args, env, *, capture_stderr=False):
    """Run a child interpreter to completion; its stdout (and stderr)."""
    try:
        proc = subprocess.run(
            args, env=env, cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE if capture_stderr else None,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("%s timed out after %ss" % (args[1:3], CHILD_TIMEOUT_S)) from exc
    if proc.returncode != 0:
        raise BenchError("%s exited with %d" % (args[1:3], proc.returncode))
    return proc.stdout, proc.stderr


def worker(env, *args):
    out, _ = child([sys.executable, str(HERE / "worker.py"), *args], env)
    return json.loads(out.strip().splitlines()[-1])


def cold_start(env, workload, warm):
    """Seconds from starting a fresh interpreter until it has imported
    midconv and finished the warm-up operation."""
    t0 = time.perf_counter()
    child([sys.executable, str(HERE / "worker.py"), "cold", workload, json.dumps(warm)], env)
    return time.perf_counter() - t0


def import_times(env):
    """Cumulative import times (ms) of midconv and its cli, sympy and numpy,
    from ``-X importtime``."""
    _, err = child(
        [sys.executable, "-X", "importtime", "-c", "import midconv.cli"], env,
        capture_stderr=True,
    )
    cumulative = {}
    for line in err.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        name = fields[2].strip()
        if name in ("midconv", "midconv.cli", "sympy", "numpy") and fields[1].strip().isdigit():
            cumulative.setdefault(name, int(fields[1]) / 1000)
    return {
        "cli.import_ms": cumulative.get("midconv", 0.0) + cumulative.get("midconv.cli", 0.0),
        "cli.import_sympy_ms": cumulative.get("sympy", 0.0),
        "cli.import_numpy_ms": cumulative.get("numpy", 0.0),
    }


def end_to_end(env, workload, seed, seconds):
    import inputs

    warm = inputs.make(workload, seed)[1]
    run = worker(env, "timed", workload, str(seed), str(seconds))
    cold = [cold_start(env, workload, warm) for _ in range(COLD_STARTS)]
    run["cold_starts_s"] = cold
    metrics = {
        "setup_s": (statistics.median(cold), "s"),
        "throughput_per_s": (run["throughput_per_s"], "1/s"),
        "latency_p50_ms": (run["latency_p50_ms"], "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    return run, metrics


def per_layer(env, workload, seed):
    spans = HERE / "results" / ("spans-%s-seed%d.jsonl" % (workload, seed))
    run = worker(env, "trace", workload, str(seed), str(spans))
    samples = [import_times(env) for _ in range(IMPORT_RUNS)]
    layers = dict(run.pop("layers"))
    for name in samples[0]:
        layers[name] = statistics.median(s[name] for s in samples)
    run["spans_file"] = str(spans.relative_to(ROOT))
    return run, {name: (layers[name], unit(name)) for name in PER_LAYER}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "midconv" / "__init__.py").is_file():
        print("benchmark: no midconv sources under %s" % src, file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    (HERE / "results").mkdir(exist_ok=True)
    try:
        if args.trace:
            run, metrics = per_layer(env, args.workload, args.seed)
        else:
            run, metrics = end_to_end(env, args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print("benchmark: %s" % exc, file=sys.stderr)
        return 1
    for line in run["errors"]:
        print("benchmark: %s" % line, file=sys.stderr)
    detail = HERE / "results" / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    detail.write_text(json.dumps(run, indent=1) + "\n")
    print(json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
