"""Benchmark of the dpnl engine: four seeded closed-loop workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sum-learn --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of one measured run;
with ``--trace 1`` the per-layer metrics of a separate traced run. The last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. Every answer is checked against a reference
computed in other processes, after the measured process has exited. See
``perfbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, chain_closed_form  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 9  # set-ups per run, the measured one included
REF_PARTS = 2  # reference processes; the machine has at least two cores
DEADLINE_S = 170.0
# Reference speed: times are scaled to a host on which worker.calibrate()
# takes this long. See "Host speed" in README.md.
CAL_REF_S = 0.0005


class BenchError(Exception):
    """The benchmark could not produce a result."""


class Runner:
    def __init__(self, root: str, workload: str, seed: int):
        self.root = root
        self.src = os.path.join(root, "src")
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        # one thread per process: two reference processes fill both cores
        threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        self.env = dict(os.environ, **{name: "1" for name in threads})

    def _cmd(self, role: str, *opts: str) -> list[str]:
        return [
            sys.executable, WORKER, role,
            "--workload", self.wl.name, "--seed", str(self.seed), "--src", self.src, *opts,
        ]

    def _timeout(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time")
        return left

    def spawn(self, role: str, *opts: str) -> tuple[list[dict], float]:
        """Run one worker to completion; returns its output lines, decoded,
        and its start time."""
        started = time.monotonic()
        try:
            proc = subprocess.run(
                self._cmd(role, *opts), cwd=self.root, env=self.env, capture_output=True,
                text=True, timeout=self._timeout(),
            )
        except subprocess.TimeoutExpired:
            raise BenchError("%s worker timed out" % role) from None
        if proc.returncode != 0:
            raise BenchError("%s worker failed:\n%s" % (role, proc.stderr[-2000:]))
        return [json.loads(line) for line in proc.stdout.splitlines()], started

    def references(self, count: int) -> dict[int, dict]:
        procs = [
            subprocess.Popen(
                self._cmd("reference", "--count", str(count), "--part", str(p), "--parts", str(REF_PARTS)),
                cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True,
            )
            for p in range(REF_PARTS)
        ]
        refs: dict[int, dict] = {}
        try:
            for proc in procs:
                out, err = proc.communicate(timeout=self._timeout())
                if proc.returncode != 0:
                    raise BenchError("reference worker failed:\n%s" % err[-2000:])
                refs.update({int(k): v for k, v in json.loads(out)["refs"].items()})
        except subprocess.TimeoutExpired:
            raise BenchError("reference worker timed out") from None
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
        return refs


def gate(wl, seed: int, records: list[dict], refs: dict[int, dict]) -> int:
    """Mark each record that raised or whose answer misses its reference;
    returns how many failed. Nothing is dropped or retried."""
    failed = 0
    for rec in records:
        if "error" in rec:
            rec["failure"] = rec["error"]
        else:
            miss = wl.judge(wl.make_input(seed, rec["index"]), rec["answer"], refs[rec["index"]])
            if miss is not None:
                rec["failure"] = "mismatch"
                rec["detail"] = miss
        failed += "failure" in rec
    return failed


def self_test() -> None:
    """The gate must count a perturbed value, bounds that exclude the
    reference and a raised exception as failures, and pass right answers."""
    learn, anytime = WORKLOADS["sum-learn"], WORKLOADS["sum-anytime"]
    horn, cnf = WORKLOADS["horn-reach"], WORKLOADS["cnf-wmc"]
    # partials equal to the value satisfy the reconstruct identity, as rows sum to 1
    grad = {"value": 0.25, "partials": [[0.25] * 10 for _ in range(2 * learn.n)]}
    bumped = dict(grad, value=0.25 * (1 + 1e-6))
    bounds = {"low": 0.30, "up": 0.305, "estimate": 0.3025}
    cases = [
        (learn, {"index": 0, "answer": grad}, {"p": 0.25}, False),
        (learn, {"index": 0, "answer": bumped}, {"p": 0.25}, True),
        (anytime, {"index": 0, "answer": bounds}, {"p": 0.302}, False),
        (anytime, {"index": 0, "answer": bounds}, {"p": 0.31}, True),
        (learn, {"index": 0, "error": "RuntimeError"}, {"p": 0.25}, True),
        (horn, {"index": 0, "answer": {"value": 0.5}}, {"p": 0.5}, False),
        (horn, {"index": 0, "answer": {"value": 0.5 + 1e-9}}, {"p": 0.5}, True),
        (cnf, {"index": 0, "answer": {"value": 0.125}}, {"p": 0.125}, False),
        (cnf, {"index": 0, "answer": {"value": 0.125 * (1 + 1e-8)}}, {"p": 0.125}, True),
    ]
    for wl, rec, ref, should_fail in cases:
        if gate(wl, 0, [rec], {0: ref}) != int(should_fail):
            raise BenchError("gate self-test: %s %r %s" % (wl.name, rec, "passed" if should_fail else "failed"))


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def latencies_ms(records: list[dict], seconds: list[float]) -> list[float]:
    """Latencies in ms; a failed request counts as slower than every success."""
    worst = max(seconds)
    return [1e3 * (s + (worst if "failure" in r else 0.0)) for r, s in zip(records, seconds)]


def fingerprint(root: str) -> str:
    """Hash of the program and benchmark sources, to key stored counts."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "dpnl", "*.py")) + glob.glob(os.path.join(HERE, "*.py"))):
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def check_counts(root: str, wl, seed: int, records: list[dict]) -> list[str]:
    """Counts must repeat exactly for a request index across runs with the
    same seed and sources; returns the mismatches and stores the union."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "counts-%s-%d-%s.json" % (wl.name, seed, fingerprint(root)))
    stored: dict = {}
    if os.path.exists(path):
        with open(path) as fh:
            stored = json.load(fh)
    errors = []
    for rec in records:
        if "counts" not in rec:
            continue
        old = stored.setdefault(str(rec["index"]), {})
        for key, value in rec["counts"].items():
            if old.setdefault(key, value) != value:
                errors.append("request %d: %s %r, earlier %r" % (rec["index"], key, value, old[key]))
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(stored, fh)
    os.replace(tmp, path)
    return errors


def git_commit(root: str):
    """The checkout's commit; None outside a git work tree of its own, where
    git would report the commit of an enclosing repository."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def at_reference_speed(records: list[dict]) -> list[float]:
    """Each request's latency scaled by the host speed around it: the
    median kernel time of it and its two neighbours on either side."""
    cal = [r["cal_s"] for r in records]
    return [
        r["latency_s"] * CAL_REF_S / statistics.median(cal[max(0, i - 2) : i + 3])
        for i, r in enumerate(records)
    ]


def setup_time(out: list[dict], started: float) -> tuple[float, float]:
    """A worker's set-up time and its host-speed kernel time."""
    return out[-1]["first_request"] - started, out[-1]["cal_s"]


def run_measured(runner: Runner, seconds: float) -> tuple[dict, list[dict], dict, dict]:
    # set-up-only processes run before and after the measured one, so that
    # their median spans the host speed over the whole run
    before = (SETUP_SAMPLES - 1) // 2
    setups = [setup_time(*runner.spawn("setup")) for _ in range(before)]
    out, started = runner.spawn("measure", "--seconds", str(seconds))
    setups.append(setup_time(out, started))
    main = out[-1]
    records = out[:-1]
    refs = runner.references(len(records))
    setups += [setup_time(*runner.spawn("setup")) for _ in range(SETUP_SAMPLES - 1 - before)]
    gate(runner.wl, runner.seed, records, refs)
    ok = [r for r in records if "failure" not in r]
    scaled = at_reference_speed(records)
    lat = latencies_ms(records, scaled)
    wall_lat = latencies_ms(records, [r["latency_s"] for r in records])
    metrics = {
        "setup_s": (statistics.median(s * CAL_REF_S / c for s, c in setups), "s"),
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_p90_ms": (percentile(lat, 90), "ms"),
        "requests_per_s": (len(ok) / sum(scaled), "1/s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    wall = {
        "failed_frac": ((len(records) - len(ok)) / len(records), "frac"),
        "wall_setup_s": (statistics.median(s for s, _ in setups), "s"),
        "wall_latency_p50_ms": (statistics.median(wall_lat), "ms"),
        "wall_latency_p90_ms": (percentile(wall_lat, 90), "ms"),
        "wall_requests_per_s": (len(ok) / main["loop_s"], "1/s"),
        "host_calibration_ms": (1e3 * statistics.median(r["cal_s"] for r in records), "ms"),
    }
    extra = {
        "wall": {k: v for k, (v, _) in wall.items()},
        "loop_s": main["loop_s"],
        "setup_samples_s": [s for s, _ in setups],
        "versions": main["versions"],
    }
    return metrics, records, extra, wall


def run_traced(runner: Runner) -> tuple[dict, list[dict], dict, dict]:
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, "spans-%s-%d.tsv.gz" % (runner.wl.name, runner.seed))
    out = runner.spawn("trace", "--spans", spans)[0][-1]
    records = out["untraced"] + out["traced"]
    refs = runner.references(runner.wl.trace_requests)
    gate(runner.wl, runner.seed, records, refs)
    errors = []
    for a, b in zip(out["untraced"], out["traced"]):
        for key in set(a.get("counts", {})) & set(b.get("counts", {})):
            if a["counts"][key] != b["counts"][key]:
                errors.append("request %d: %s untraced %r, traced %r" % (a["index"], key, a["counts"][key], b["counts"][key]))
    extra = {"spans": out["spans"], "spans_file": os.path.relpath(spans, runner.root), "versions": out["versions"], "count_errors": errors}
    probe = out.get("probe")
    if probe is not None:
        extra["probe"] = judge_probe(runner, probe)
    metrics = {name: (value, layer_unit(name)) for name, value in out["metrics"].items()}
    return metrics, records, extra, {}


def layer_unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_us_per_call", "us"), ("_frac", "frac"), ("_gap", "prob")):
        if name.endswith(suffix):
            return unit
    return "count"


def judge_probe(runner: Runner, probe: dict) -> dict:
    """The deep chain probe: not part of the timed mix. A RecursionError is
    the known limit of the recursive engine; any other outcome must be the
    closed-form value."""
    inp = runner.wl.probe_input(runner.seed)
    report = {"facts": len(inp["probs"]), "seconds": probe["latency_s"]}
    if "error" in probe:
        report["outcome"] = probe["error"]
        report["known"] = probe["error"] == "RecursionError"
    else:
        miss = runner.wl.judge(inp, probe["answer"], {"p": chain_closed_form(inp["probs"])})
        report["outcome"] = "mismatch: " + miss if miss else "ok"
        report["known"] = miss is None
    return report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind so that running workers are killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dpnl", "__init__.py")):
        print("error: run from the root of a dpnl checkout (src/dpnl not found)", file=sys.stderr)
        return 2
    try:
        self_test()
        runner = Runner(root, args.workload, args.seed)
        if args.trace:
            metrics, records, extra, shown = run_traced(runner)
        else:
            metrics, records, extra, shown = run_measured(runner, args.seconds)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    wl = runner.wl
    count_errors = extra.pop("count_errors", []) + check_counts(root, wl, args.seed, records)
    failures: dict[str, int] = {}
    for rec in records:
        if "failure" in rec:
            failures[rec["failure"]] = failures.get(rec["failure"], 0) + 1
    failed = sum(failures.values())
    probe_ok = extra.get("probe", {}).get("known", True)
    correct = failed == 0 and not count_errors and probe_ok
    meta = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "commit": git_commit(root),
        "nproc": len(os.sched_getaffinity(0)),
        "params": wl.params,
        "failures": failures,
        **extra,
    }
    print("%s seed %d trace %d: %d requests, %d failed" % (wl.name, args.seed, args.trace, len(records), failed))
    for name, (value, unit) in {**metrics, **shown}.items():
        print("  %-30s %14.6g %s" % (name, value, unit))
    for rec in records:
        if rec.get("failure") == "mismatch":
            print("  mismatch on request %d: %s" % (rec["index"], rec["detail"]), file=sys.stderr)
    for err in count_errors:
        print("  count mismatch: %s" % err, file=sys.stderr)
    if "probe" in extra:
        print("  deep-chain probe: %(facts)d facts, %(outcome)s after %(seconds).2f s" % extra["probe"])
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "BENCH_%s-trace%d.json" % (wl.name, args.trace)), "w") as fh:
        json.dump({"meta": meta, "metrics": {k: v for k, (v, _) in metrics.items()}, "correct": correct}, fh, indent=1)
    print("meta " + json.dumps(meta))
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
