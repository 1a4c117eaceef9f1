"""Spans for the traced run, recorded from outside the library.

``Tracer.install`` replaces module attributes of ``dpnl`` with wrappers and
``Tracer.uninstall`` puts the originals back; the untraced run never sees a
wrapper. Each wrapper records one span (name, start, end, parent, request)
into flat arrays, so a run of a few hundred thousand oracle calls stays a
few megabytes. ``layer_metrics`` turns the spans into per-layer numbers.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import defaultdict

perf = time.perf_counter

ORDER_SPAN = {"sumtask": "inference.order", "logic": "logic.order"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("l")
        self.request = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._current_request = -1
        self._patches: list = []
        # counts at the oracle boundary, by span name
        self.decided: dict[str, int] = defaultdict(int)
        self.max_depth = 0

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.request.append(self._current_request)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, t0: float) -> None:
        self.end[sid] = perf()
        self.start[sid] = t0
        self._stack.pop()

    def span(self, name: str, fn):
        """``fn`` wrapped so that every call records a span."""
        nid = self._id(name)

        def traced(*args, **kwargs):
            sid = self._open(nid)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, t0)

        return traced

    def run_request(self, index: int, fn, *args):
        """Call ``fn`` under a root span that marks request ``index``."""
        self._current_request = index
        try:
            return self.span("request", fn)(*args)
        finally:
            self._current_request = -1

    def _wrap_oracle(self, name: str, oracle) -> None:
        nid = self._id(name)
        fn = oracle.fn
        decided = self.decided

        def traced(v, o):
            sid = self._open(nid)
            t0 = perf()
            try:
                verdict = fn(v, o)
            finally:
                self._close(sid, t0)
            if verdict.answer is not None:
                decided[name] += 1
            cells = v.cells
            depth = len(cells) - cells.count(None)
            if depth > self.max_depth:
                self.max_depth = depth
            return verdict

        oracle.fn = traced

    def _patch(self, module, attr: str, wrapper) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self, dp) -> None:
        """Wrap the layers' entry points; ``dp`` holds the dpnl modules."""

        def oracle_returning(layer, fn):
            def build(*args, **kwargs):
                out = fn(*args, **kwargs)
                self._wrap_oracle(layer + ".oracle", out[2])
                return out

            return build

        def order_returning(layer, fn):
            def build(*args, **kwargs):
                order = fn(*args, **kwargs)
                order.choose = self.span(ORDER_SPAN[layer], order.choose)
                return order

            return build

        sumtask, logic, cnf = dp.sumtask, dp.logic, dp.cnf
        self._patch(dp.inference, "dpnl_gradient", self.span("inference.dpnl_gradient", dp.inference.dpnl_gradient))
        # success_probability looks these names up in dpnl.logic
        self._patch(logic, "dpnl", self.span("inference.dpnl", logic.dpnl))
        self._patch(logic, "logic_instance", oracle_returning("logic", logic.logic_instance))
        self._patch(logic, "applicable_rule_order", order_returning("logic", logic.applicable_rule_order))
        self._patch(logic, "parse_program", self.span("logic.parse", logic.parse_program))
        self._patch(logic, "success_probability", self.span("logic.success_probability", logic.success_probability))
        self._patch(dp.approx, "approx_dpnl", self.span("approx.approx_dpnl", dp.approx.approx_dpnl))
        self._patch(sumtask, "build_sum_instance", oracle_returning("sumtask", sumtask.build_sum_instance))
        self._patch(sumtask, "right_to_left_order", order_returning("sumtask", sumtask.right_to_left_order))
        self._patch(cnf, "parse_dimacs", self.span("cnf.parse", cnf.parse_dimacs))
        self._patch(cnf, "probdpll", self.span("cnf.probdpll", cnf.probdpll))
        # probdpll's recursion looks condition up in dpnl.cnf on every call
        self._patch(cnf, "condition", self.span("cnf.condition", cnf.condition))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def per_request(self, name: str) -> tuple[dict[int, int], dict[int, float]]:
        """Span count and summed duration of ``name``, by request."""
        nid = self._name_ids.get(name)
        count: dict[int, int] = defaultdict(int)
        dur: dict[int, float] = defaultdict(float)
        for n, r, s, e in zip(self.name, self.request, self.start, self.end):
            if n == nid:
                count[r] += 1
                dur[r] += e - s
        return count, dur

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: summed duration, summed self time, span count.

        A span's self time is its duration minus that of its direct
        children; spans of one thread nest, so children never overlap.
        """
        covered = defaultdict(float)
        for p, s, e in zip(self.parent, self.start, self.end):
            if p >= 0:
                covered[p] += e - s
        dur = defaultdict(float)
        self_time = defaultdict(float)
        count = defaultdict(int)
        for sid, (n, s, e) in enumerate(zip(self.name, self.start, self.end)):
            name = self.names[n]
            dur[name] += e - s
            self_time[name] += e - s - covered.get(sid, 0.0)
            count[name] += 1
        return dur, self_time, count

    def write(self, path: str) -> None:
        """Spans as gzip'd tab-separated lines, times in microseconds from
        the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\trequest\tname\tstart_us\tend_us\n")
            for sid, (n, p, r, s, e) in enumerate(
                zip(self.name, self.parent, self.request, self.start, self.end)
            ):
                fh.write(
                    "%d\t%d\t%d\t%s\t%.3f\t%.3f\n"
                    % (sid, p, r, self.names[n], (s - t0) * 1e6, (e - t0) * 1e6)
                )


def layer_metrics(tracer: Tracer, answers: list, untraced_s: float, traced_s: float) -> dict:
    """Per-layer numbers of one traced run, per request unless noted.

    ``answers`` holds one record per traced request (its counts and input
    flags); counts of the inference layer come from the returned QueryStats.
    """
    k = len(answers)
    dur, self_time, count = tracer.totals()

    def ms(table, *names):
        return 1e3 * sum(table.get(n, 0.0) for n in names) / k

    def per_call_us(name):
        return 1e6 * dur[name] / count[name] if count.get(name) else 0.0

    def frac(name):
        return tracer.decided.get(name, 0) / count[name] if count.get(name) else 0.0

    def mean_count(kind, key):
        return sum(a["counts"].get(key, 0) for a in answers if a["layer"] == kind) / k

    approx_dur = tracer.per_request("approx.approx_dpnl")[1]
    traced_req = [a["index"] for a in answers if a.get("bound_trace")]
    plain_req = [a["index"] for a in answers if a.get("bound_trace") is False]

    def mean_ms(indices):
        return 1e3 * sum(approx_dur.get(i, 0.0) for i in indices) / len(indices) if indices else 0.0

    gaps = [a["answer"]["up"] - a["answer"]["low"] for a in answers if a["layer"] == "approx"]
    return {
        "inference.oracle_calls": mean_count("inference", "oracle_calls"),
        "inference.branch_nodes": mean_count("inference", "branch_nodes"),
        "inference.max_depth": tracer.max_depth,
        "inference.order_ms": ms(dur, "inference.order"),
        "inference.self_ms": ms(self_time, "inference.dpnl", "inference.dpnl_gradient"),
        "sumtask.oracle_ms": ms(dur, "sumtask.oracle"),
        "sumtask.oracle_us_per_call": per_call_us("sumtask.oracle"),
        "sumtask.decided_frac": frac("sumtask.oracle"),
        "logic.oracle_ms": ms(dur, "logic.oracle"),
        "logic.oracle_us_per_call": per_call_us("logic.oracle"),
        "logic.decided_frac": frac("logic.oracle"),
        "logic.order_ms": ms(dur, "logic.order"),
        "logic.parse_ms": ms(dur, "logic.parse"),
        "approx.iterations": mean_count("approx", "iterations"),
        "approx.branch_nodes": mean_count("approx", "branch_nodes"),
        "approx.self_ms": ms(self_time, "approx.approx_dpnl"),
        "approx.untraced_ms": mean_ms(plain_req),
        "approx.traced_ms": mean_ms(traced_req),
        "approx.final_gap": max(gaps, default=0.0),
        "cnf.branch_nodes": mean_count("cnf", "branch_nodes"),
        "cnf.condition_calls": count.get("cnf.condition", 0) / k,
        "cnf.condition_ms": ms(dur, "cnf.condition"),
        "cnf.self_ms": ms(self_time, "cnf.probdpll"),
        "cnf.parse_ms": ms(dur, "cnf.parse"),
        "bench.tracing_overhead_frac": traced_s / untraced_s - 1.0,
    }
