"""Child process of the benchmark: one fresh interpreter per job.

  worker.py cold  WORKLOAD INPUT_JSON       import midconv, run the warm-up op
  worker.py timed WORKLOAD SEED SECONDS     whole rounds until SECONDS passed
  worker.py trace WORKLOAD SEED SPANS_PATH  two rounds untraced, one traced

``timed`` and ``trace`` print one JSON line: what was attempted and failed,
the check result, and the measurements.  ``run.py`` starts these with
``PYTHONPATH`` pointing at the checkout's ``src`` and ``PYTHONHASHSEED``
fixed.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time


def _run_round(op, round_inputs, latencies, first, state, tracer=None):
    """Run every operation of the round once, in order.  Outputs of the
    first round are kept for the checks; later rounds must repeat them."""
    for i, inp in enumerate(round_inputs):
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter_ns()
        try:
            out = op(inp)
        except Exception as exc:  # a failing operation is counted, not fatal
            out = exc
            state["failed"] += 1
            if len(state["errors"]) < 5:
                state["errors"].append("op %d raised %s: %s" % (i, type(exc).__name__, exc))
        latencies[i].append(time.perf_counter_ns() - t0)
        state["attempted"] += 1
        if len(first) <= i:
            first.append(out)
        elif not isinstance(out, Exception) and out != first[i]:
            state["mismatched"] += 1


def _check(workload, round_inputs, outputs):
    import checks
    import ops

    if workload == "enumerate":
        inp = round_inputs[0]
        return checks.check_enumeration(
            ops.sweep_texts(outputs[0]), inp["rigid_orders"], inp["basic_indices"]
        )
    check = {
        "classify-stream": checks.check_analyze,
        "matrix-mc": checks.check_mc,
        "decompose-connect": checks.check_decompose,
    }[workload]
    errors = []
    for inp, out in zip(round_inputs, outputs):
        if not isinstance(out, Exception):
            errors += check(inp, out)
    return errors


def _verdict(workload, round_inputs, first, state):
    errors = _check(workload, round_inputs, first)
    if state["mismatched"]:
        errors.append("%d outputs differ between rounds" % state["mismatched"])
    return {
        "attempted": state["attempted"],
        "failed": state["failed"],
        "correct": not errors,
        "errors": state["errors"] + errors[:5],
    }


def _prepare(workload, seed):
    import inputs

    round_inputs, warm = inputs.make(workload, seed)
    import ops

    op = ops.OPS[workload]
    op(warm)
    return op, round_inputs


def timed(workload, seed, seconds):
    op, round_inputs = _prepare(workload, seed)
    latencies = [[] for _ in round_inputs]
    first = []
    state = {"attempted": 0, "failed": 0, "mismatched": 0, "errors": []}
    rounds = 0
    t0 = time.perf_counter()
    while True:
        _run_round(op, round_inputs, latencies, first, state)
        rounds += 1
        if time.perf_counter() - t0 >= seconds:
            break
    wall = time.perf_counter() - t0
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    per_op_ms = [statistics.median(lat) / 1e6 for lat in latencies]
    result = _verdict(workload, round_inputs, first, state)
    result.update(
        rounds=rounds,
        wall_s=wall,
        throughput_per_s=(state["attempted"] - state["failed"]) / wall,
        latency_p50_ms=statistics.median(per_op_ms),
        per_op_ms=per_op_ms,
        peak_rss_mb=rss_kb / 1024,
    )
    return result


def trace(workload, seed, spans_path):
    import tracing

    op, round_inputs = _prepare(workload, seed)
    latencies = [[] for _ in round_inputs]
    first = []
    state = {"attempted": 0, "failed": 0, "mismatched": 0, "errors": []}
    # The first round fills the program's caches; the overhead compares
    # the second (untraced) round with the third (traced) one.
    _run_round(op, round_inputs, latencies, first, state)
    t0 = time.perf_counter()
    _run_round(op, round_inputs, latencies, first, state)
    untraced = time.perf_counter() - t0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        _run_round(op, round_inputs, latencies, first, state, tracer)
        traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    layers = tracer.metrics()
    layers["trace.overhead_s"] = traced - untraced
    tracer.dump(spans_path)
    result = _verdict(workload, round_inputs, first, state)
    result.update(layers=layers, spans=len(tracer.start), untraced_s=untraced, traced_s=traced)
    return result


def main(argv):
    mode, workload = argv[0], argv[1]
    if mode == "cold":
        import ops

        ops.OPS[workload](json.loads(argv[2]))
        return
    if mode == "timed":
        result = timed(workload, int(argv[2]), float(argv[3]))
    else:
        result = trace(workload, int(argv[2]), argv[3])
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
