"""equicode benchmark: one workload, one seed, one process, one client.

    python3 perfbench/run.py --workload cover-decode --seed 1 --seconds 25 \
        --trace 0

Run from the repository root.  It imports equicode from ./src, sets the
workload up several times from cold caches, sends requests in a closed
loop until their summed run time reaches --seconds, and checks every
output.  Times are reported in reference seconds (see calibrate.py).  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json; with --trace 1 they are the
per-layer ones, from a fixed number of requests run once untraced and
once traced (trace.overhead_ratio compares the two), and the spans go to
.perfbench/traces/.  The exit status is
0 only when every output checked out.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

from calibrate import ScaledClock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_SEED = 1


def reset_caches():
    """Empty equicode's process-wide caches so set-up starts cold.

    These are the module-level dicts named *_CACHE and functools caches;
    caches held by a field context die with the context, and set-up makes
    fresh ones.
    """
    for name, mod in list(sys.modules.items()):
        if name != "equicode" and not name.startswith("equicode."):
            continue
        for key, value in vars(mod).items():
            if key.endswith("_CACHE") and isinstance(value, dict):
                value.clear()
            elif callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def timed_setup(wl, stats, clock, key, around=contextlib.nullcontext):
    """Set the workload up from cold caches, timed on `clock` under `key`."""
    reset_caches()
    stats["attempted"] += 1
    clock.flush()
    with around():
        t0 = time.perf_counter()
        wl.setup()
        clock.record(key, time.perf_counter() - t0)
    clock.flush()
    try:
        ok = wl.check_setup()
    except Exception:
        traceback.print_exc()
        ok = False
    if not ok:
        print("perfbench: set-up output check failed", file=sys.stderr)
        stats["failed"] += 1


def run_requests(wl, indices, stats, clock, tag,
                 around=contextlib.nullcontext, budget=math.inf,
                 deadline=math.inf):
    """Send requests in a closed loop; returns [(index, wall seconds)].

    Only item calls are on the clock; each request's time is also recorded
    on `clock` under (tag, index).  A call that raises or a check that
    fails counts in stats["failed"], a good one in stats["verified"].
    `indices` may be endless; the loop stops once the request times reach
    `budget` seconds or time.monotonic() passes `deadline`.
    """
    done = []
    spent_total = 0.0
    for index in indices:
        if spent_total >= budget or time.monotonic() >= deadline:
            break
        spent = 0.0
        for item in wl.request(index):
            stats["attempted"] += 1
            try:
                with around(item):
                    t0 = time.perf_counter()
                    try:
                        out = item.call()
                    finally:
                        dt = time.perf_counter() - t0
                        spent += dt
                        clock.record((tag, index), dt)
                ok = item.check(out)
            except Exception:
                traceback.print_exc()
                ok = False
            stats["verified" if ok else "failed"] += 1
        done.append((index, spent))
        spent_total += spent
    clock.flush()
    return done


def tail(times):
    """(percentile, value) with 10 samples beyond it; None below p90."""
    if len(times) < 100:
        return None
    ordered = sorted(times)
    idx = len(ordered) - 11
    return 100.0 * (idx + 1) / len(ordered), ordered[idx]


def end_to_end(wl, seconds, stats):
    clock = ScaledClock()
    # Half the set-ups run after the requests, so that setup_s samples the
    # whole run, not just its first seconds.
    before = (wl.setup_reps + 1) // 2
    for k in range(before):
        timed_setup(wl, stats, clock, ("setup", k))
    done = run_requests(wl, itertools.count(), stats, clock, "request",
                        budget=seconds,
                        deadline=time.monotonic() + 1.5 * seconds + 10)
    for k in range(before, wl.setup_reps):
        timed_setup(wl, stats, clock, ("setup", k))
    setups = [clock.totals[("setup", k)] for k in range(wl.setup_reps)]
    times = [clock.totals[("request", i)] for i, _ in done]
    t = tail(times)
    print("perfbench: %s: %d requests, %d items verified, p50 %.4f "
          "reference s (wall %.4f s; probe at %.2fx its reference time)%s"
          % (wl.name, len(times), stats["verified"],
             statistics.median(times),
             statistics.median(wall for _, wall in done),
             1 / clock.scale(),
             "" if t is None else ", tail p%.1f %.4f s" % t),
          file=sys.stderr)
    return {
        "setup_s": statistics.median(setups),
        "latency_p50_s": statistics.median(times),
        "throughput_per_s": stats["verified"] / sum(times),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(wl, stats, trace_path):
    from equicode.ff import count_field_ops
    from tracer import Tracer, aggregate
    from workloads import MulPaths

    indices = range(wl.trace_requests)
    plain = ScaledClock()
    timed_setup(wl, stats, plain, "setup")
    run_requests(wl, indices, stats, plain, "request")

    tracer = Tracer()
    field_ops = [0]

    @contextlib.contextmanager
    def traced(item):
        with tracer.recording("work", item.word), count_field_ops() as ops:
            yield
        field_ops[0] += ops.count

    with tracer.installed():
        clock = ScaledClock()
        timed_setup(wl, stats, clock, "setup",
                    lambda: tracer.recording("setup"))
        run_requests(wl, indices, stats, clock, "request", traced)

    def requests_time(c):
        return sum(v for k, v in c.totals.items() if k != "setup")

    metrics = aggregate(tracer.spans, MulPaths.pair_names, clock.scale())
    metrics["ff.field_ops"] = field_ops[0]
    metrics["trace.overhead_ratio"] = requests_time(clock) / \
        requests_time(plain)
    tracer.dump(trace_path)
    return metrics


def main(argv=None):
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import workloads
    except ImportError as e:
        print("perfbench: cannot import equicode from %s: %s" % (src, e),
              file=sys.stderr)
        return 2
    if not os.path.abspath(workloads.eq.__file__).startswith(src + os.sep):
        print("perfbench: equicode was not imported from %s" % src,
              file=sys.stderr)
        return 2
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as e:
        print("perfbench: cannot read BENCHMARK.json: %s" % e,
              file=sys.stderr)
        return 2

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    scratch = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(scratch, "work-%d" % os.getpid())
    os.makedirs(workdir)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    stats = {"attempted": 0, "failed": 0, "verified": 0}
    try:
        if args.trace:
            os.makedirs(os.path.join(scratch, "traces"), exist_ok=True)
            values = per_layer(wl, stats, os.path.join(
                scratch, "traces", "%s-seed%d.json.gz"
                % (args.workload, args.seed)))
            wanted = spec["per_layer"]
        else:
            values = end_to_end(wl, args.seconds, stats)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(values) != {m["name"] for m in wanted}:
        print("perfbench: metrics %s do not match BENCHMARK.json"
              % sorted(set(values) ^ {m["name"] for m in wanted}),
              file=sys.stderr)
        return 2
    result = {
        "correct": stats["failed"] == 0,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
