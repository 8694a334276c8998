"""Run one workload in this process and print its result as the last line.

``run.py`` starts this file in a fresh process per workload, with BLAS and
OpenMP pinned to one thread and the hash seed fixed, and reads the last
line of its output.  Two modes:

* untraced (``--trace 0``): set up, then run whole rounds of operations
  until the operations have taken ``--seconds`` (and at least ``MIN_OPS``
  of them ran, so that ten or more latencies lie beyond p90).  Every output
  is checked after its round, outside the timed interval.  The set-up is
  repeated ``SETUP_REPEATS`` times in all, spread over the run, and
  ``setup_s`` is the median.
* traced (``--trace 1``): a fixed number of rounds, ``TRACE_ROUNDS_PER_S``
  times ``--seconds``, first untraced and checked (after one warm-up
  set-up), then again on a fresh set-up with spans recorded around the program's public functions.  The
  per-layer metrics come from the spans; ``trace.overhead_s`` is the traced
  minus the untraced elapsed time (set-up plus operations) of those rounds.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPEATS = 15
MIN_OPS = 110
WALL_CAP_S = 120.0  # stop starting rounds after this much wall time


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import polyfield
    if Path(polyfield.__file__).resolve().parent != ROOT / "src" / "polyfield":
        raise ImportError(f"polyfield imported from {polyfield.__file__}, not from this checkout")


def _run_round(w, state, items, on_error):
    """Run one round; returns [(item, output or None, seconds)]."""
    done = []
    for item in items:
        t0 = time.perf_counter()
        try:
            out = w.run(state, item)
        except Exception as exc:  # an operation that raises is a failed operation
            dt = time.perf_counter() - t0
            on_error(exc)
            done.append((item, None, dt))
            continue
        done.append((item, out, time.perf_counter() - t0))
    return done


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.passed = 0
        self.errors = []
        self.check_failures = []

    def error(self, exc):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{type(exc).__name__}: {exc}")

    def check(self, w, state, done):
        for item, out, _ in done:
            self.attempted += 1
            if out is None:
                continue
            bad = w.check(state, item, out)
            if bad:
                self.check_failures.extend(bad[:2])
            else:
                self.passed += 1

    @property
    def correct(self):
        return not self.check_failures


def _timed_setup(w):
    gc.collect()
    t0 = time.perf_counter()
    state = w.setup()
    return state, time.perf_counter() - t0


def untraced(w, seed, seconds):
    state, first = _timed_setup(w)
    setup_times = [first]
    tally, latencies = Tally(), []
    timed, rounds = 0.0, 0
    wall0 = time.perf_counter()
    while True:
        items = w.round_inputs(state, seed, rounds)
        done = _run_round(w, state, items, tally.error)
        timed += sum(dt for _, _, dt in done)
        latencies.extend(dt for _, out, dt in done if out is not None)
        tally.check(w, state, done)
        rounds += 1
        # further set-ups are spread over the run, so that their median
        # samples the machine over the same stretch of time as the operations
        if len(setup_times) < SETUP_REPEATS and \
                timed >= seconds * len(setup_times) / SETUP_REPEATS:
            setup_times.append(_timed_setup(w)[1])
            gc.collect()
        if timed >= seconds and tally.attempted >= MIN_OPS:
            break
        if time.perf_counter() - wall0 > WALL_CAP_S:
            break
    if len(latencies) < 2:
        raise SystemExit(f"{w.name}: only {len(latencies)} operations completed")
    lat_ms = sorted(1e3 * dt for dt in latencies)
    cuts = statistics.quantiles(lat_ms, n=10, method="inclusive")
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (tally.passed / timed, "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (cuts[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = {"rounds": rounds, "timed_s": timed, "setup_s": setup_times,
           "latency_ms": lat_ms}
    return tally, metrics, raw


def traced(w, seed, seconds):
    from polyfield.brackets import NotBracketable

    from tracer import Tracer
    from workloads import omega_nodes

    rounds = max(1, w.TRACE_ROUNDS_PER_S * seconds)
    tally = Tally()
    _timed_setup(w)  # warm-up, so that both passes start from a warm process
    state, plain = _timed_setup(w)
    for r in range(rounds):
        done = _run_round(w, state, w.round_inputs(state, seed, r), tally.error)
        plain += sum(dt for _, _, dt in done)
        tally.check(w, state, done)
    state = None
    gc.collect()

    tracer = Tracer()
    nodes = points = rejected = 0
    tracer.install()
    try:
        t0 = time.perf_counter()
        state = w.setup()
        elapsed = time.perf_counter() - t0
        op = 0
        for r in range(rounds):
            with tracer.paused():
                items = w.round_inputs(state, seed, r)
            for item in items:
                tracer.current_op = op
                t0 = time.perf_counter()
                try:
                    out = w.run(state, item)
                except Exception:  # already counted by the untraced pass
                    out = None
                elapsed += time.perf_counter() - t0
                op += 1
                with tracer.paused():
                    nodes += 0 if out is None else w.result_nodes(item, out)
                    points += w.points_solved(item)
                    rejected += isinstance(out, NotBracketable)
        tracer.current_op = -1
        with tracer.paused():
            omega = omega_nodes(w.charts(state))
    finally:
        tracer.uninstall()

    layers = tracer.layer_metrics()
    solves = layers["legendre.legendre_solve.calls"]
    lookups = layers["legendre.solve_velocity.calls"]
    metrics = {k: (v, "s" if k.endswith("_s") else "count") for k, v in layers.items()}
    metrics["legendre.velocity_cache_hit_ratio"] = (1.0 - solves / lookups if lookups else 0.0,
                                                    "ratio")
    metrics["expr.result_nodes"] = (nodes, "count")
    metrics["phase.omega_nodes"] = (omega, "count")
    metrics["brackets.points_solved"] = (points, "count")
    metrics["brackets.not_bracketable"] = (rejected, "count")
    metrics["trace.overhead_s"] = (elapsed - plain, "s")
    if tracer.missing:
        print(f"not found in the program, reported as 0: {', '.join(tracer.missing)}",
              file=sys.stderr)
    raw = {"rounds": rounds, "untraced_s": plain, "traced_s": elapsed,
           "missing": tracer.missing}
    return tally, metrics, raw, tracer


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    _import_program()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tally, metrics, raw, tracer = traced(w, args.seed, args.seconds)
        tracer.write(OUT / f"spans-{stem}.npz")
    else:
        tally, metrics, raw = untraced(w, args.seed, args.seconds)

    for msg in tally.errors:
        print(f"operation failed: {msg}", file=sys.stderr)
    for msg in tally.check_failures[:10]:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    raw.update(workload=w.name, seed=args.seed, seconds=args.seconds,
               errors=tally.errors, check_failures=tally.check_failures, result=result)
    (OUT / f"result-{stem}.json").write_text(json.dumps(raw))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
