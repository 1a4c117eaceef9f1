"""Child processes of the benchmark; ``run.py`` starts them.

Roles:

- ``setup``: start, import, draw the warm-up inputs, warm up, then report the
  time the first request would be sent and exit.
- ``measure``: the same set-up, then the closed request loop for
  ``--seconds`` seconds, ending on a whole schedule block with at least 100
  requests. One client, one request in flight, no threads.
- ``trace``: the same set-up, then each of the first ``trace_requests``
  requests of the schedule untraced and again traced, and the deep-chain
  probe of horn-reach.
- ``reference``: references for requests ``0..count-1`` whose group falls in
  this part; runs after the measured process has exited.

Each role prints one JSON object as the last line of stdout; ``measure``
prints one line per request before it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_REQUESTS = 100
SETUP_CAL = 5  # kernel runs before and after set-up
_TABLE = tuple(range(10))
_LOOKUP = {k: (3 * k) % 10 for k in range(10)}


def calibrate() -> float:
    """Seconds for a fixed piece of interpreter work (about 0.5 ms).

    The host this runs on changes speed by up to 1.8x for seconds at a
    time; timing this kernel next to each request measures that speed. It
    uses no dpnl code, allocates no containers and so never triggers the
    garbage collector, whatever the library keeps alive.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(4000):
        acc = (acc + _TABLE[i % 10] * _LOOKUP[(i + acc) % 10]) % 97
    return time.perf_counter() - t0


class Modules:
    """The dpnl modules a request reaches into."""

    def __init__(self):
        import dpnl.approx
        import dpnl.cnf
        import dpnl.core
        import dpnl.inference
        import dpnl.logic
        import dpnl.sumtask

        self.approx = dpnl.approx
        self.cnf = dpnl.cnf
        self.core = dpnl.core
        self.inference = dpnl.inference
        self.logic = dpnl.logic
        self.sumtask = dpnl.sumtask


def import_program(src: str) -> Modules:
    sys.path.insert(0, src)
    dp = Modules()
    found = os.path.dirname(os.path.abspath(dp.core.__file__))
    if found != os.path.join(src, "dpnl"):
        raise SystemExit("imported dpnl from %s, expected %s" % (found, src))
    return dp


def one_request(wl, dp, inp: dict, index: int, run=None) -> dict:
    """Send one request; a raised exception is recorded as a failed request."""
    rec = {"index": index, "layer": wl.layer}
    if "bound_trace" in inp:
        rec["bound_trace"] = inp["bound_trace"]
    t0 = time.perf_counter()
    try:
        if run is None:
            answer, counts = wl.request(dp, inp)
        else:
            answer, counts = run(index, wl.request, dp, inp)
    except Exception as exc:  # the loop must go on; the kind is reported
        rec["error"] = type(exc).__name__
        rec["latency_s"] = time.perf_counter() - t0
        return rec
    rec["latency_s"] = time.perf_counter() - t0
    rec["answer"] = answer
    rec["counts"] = counts
    return rec


def set_up(wl, src: str) -> Modules:
    """Import and warm up. The warm-up inputs are the same for every seed, so
    that set-up does the same work in every run."""
    dp = import_program(src)
    for i in wl.warmup:
        wl.request(dp, wl.make_input(0, i, stream="warmup"))
    return dp


def measure(wl, dp, seed: int, seconds: float) -> dict:
    """The request loop. Records go to stdout as they complete, so memory
    does not grow with the number of requests; drawing inputs and writing
    records is client work and is left out of the loop time."""
    client = 0.0
    start = time.perf_counter()
    i = 0
    while True:
        if i % wl.block == 0 and i >= MIN_REQUESTS and time.perf_counter() - start >= seconds:
            break
        t0 = time.perf_counter()
        inp = wl.make_input(seed, i)
        cal_s = calibrate()
        t1 = time.perf_counter()
        rec = one_request(wl, dp, inp, i)
        t2 = time.perf_counter()
        rec["cal_s"] = cal_s
        sys.stdout.write(json.dumps(rec) + "\n")
        client += (t1 - t0) + (time.perf_counter() - t2)
        i += 1
    return {"loop_s": time.perf_counter() - start - client}


def trace(wl, dp, seed: int, spans_path: str) -> dict:
    from tracing import Tracer, layer_metrics

    # each request runs untraced, then traced, so both passes see the same
    # machine state; the wrappers are only in place for the traced call
    tracer = Tracer()
    untraced, traced = [], []
    untraced_s = traced_s = 0.0
    for i in range(wl.trace_requests):
        inp = wl.make_input(seed, i)
        untraced.append(one_request(wl, dp, inp, i))
        untraced_s += untraced[-1]["latency_s"]
        tracer.install(dp)
        try:
            traced.append(one_request(wl, dp, inp, i, tracer.run_request))
        finally:
            tracer.uninstall()
        traced_s += traced[-1]["latency_s"]
    conditions = tracer.per_request("cnf.condition")[0]
    for rec in traced:
        if "counts" in rec and wl.layer == "cnf":
            rec["counts"]["condition_calls"] = conditions.get(rec["index"], 0)
    ok = [r for r in traced if "counts" in r]
    metrics = layer_metrics(tracer, ok, untraced_s, traced_s) if ok else {}
    tracer.write(spans_path)
    out = {"untraced": untraced, "traced": traced, "metrics": metrics, "spans": len(tracer.name)}
    if hasattr(wl, "probe_input"):
        out["probe"] = one_request(wl, dp, wl.probe_input(seed), -1)
    return out


def reference(wl, dp, seed: int, count: int, part: int, parts: int) -> dict:
    refs = {}
    cache: dict = {}
    for i in range(count):
        if wl.ref_group(i) % parts == part:
            refs[i] = wl.reference(dp, seed, i, wl.make_input(seed, i), cache)
    return refs


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("role", choices=["setup", "measure", "trace", "reference"])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--count", type=int, default=0)
    ap.add_argument("--part", type=int, default=0)
    ap.add_argument("--parts", type=int, default=1)
    ap.add_argument("--spans", default="")
    args = ap.parse_args()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    if args.role == "reference":
        dp = import_program(args.src)
        out = {"refs": reference(wl, dp, args.seed, args.count, args.part, args.parts)}
    else:
        # host speed during set-up: the kernel before and after it
        cal = [calibrate() for _ in range(SETUP_CAL)]
        dp = set_up(wl, args.src)
        first_request = time.monotonic()
        cal += [calibrate() for _ in range(SETUP_CAL)]
        out = {"first_request": first_request, "cal_s": statistics.median(cal)}
        if args.role == "measure":
            out.update(measure(wl, dp, args.seed, args.seconds))
        elif args.role == "trace":
            out.update(trace(wl, dp, args.seed, args.spans))
        # ru_maxrss is in KiB on Linux
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        import numpy

        out["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__}
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
