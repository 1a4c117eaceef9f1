"""The benchmark's four workloads: seeded inputs, requests, references, gate.

Inputs are drawn with plain ``random`` from (workload, seed, stream, index),
so the controller, the measured worker and the reference processes all
rebuild the same input for a request index without importing ``dpnl``. Only
``request`` and ``reference`` touch the library; ``request`` reaches it
through module attributes (``dp.inference.dpnl_gradient`` and so on), which
is where the traced run installs its wrappers.
"""

from __future__ import annotations

import math
import random
from typing import Optional

# tolerances of the test suite (tests/test_acceptance.py)
VALUE_TOL = 1e-10
RECONSTRUCT_TOL = 1e-9
FD_TOL = 1e-6
BOUND_SLACK = 1e-12


# logit added to each row's hot digit: the hot digit then holds a median 0.71
# of the row's mass, and more than half of it in 80% of rows (README.md,
# "Workloads")
BOOST = 3.5


def _rng(name: str, seed: int, stream: str, key) -> random.Random:
    # str seeds hash with SHA-512, so the stream is stable across processes
    return random.Random("%s:%d:%s:%s" % (name, seed, stream, key))


def _close(got: float, ref: float, tol: float = VALUE_TOL) -> bool:
    return abs(got - ref) <= tol


def softmax_rows(rng: random.Random, count: int, boost: float) -> list[list[float]]:
    """Digit tables shaped like a classifier's softmax output: standard-normal
    logits with ``boost`` added to one random hot digit per row."""
    rows = []
    for _ in range(count):
        z = [rng.gauss(0.0, 1.0) for _ in range(10)]
        z[rng.randrange(10)] += boost
        top = max(z)
        e = [math.exp(x - top) for x in z]
        s = sum(e)
        rows.append([x / s for x in e])
    return rows


def sampled_label(rng: random.Random, rows: list[list[float]]) -> int:
    """Sum of the two numbers whose digits are drawn from ``rows``."""
    digits = [rng.choices(range(10), weights=row)[0] for row in rows]
    n = len(rows) // 2
    a = int("".join(map(str, digits[:n])))
    b = int("".join(map(str, digits[n:])))
    return a + b


def _counts(stats) -> dict:
    return {"oracle_calls": stats.oracle_calls, "branch_nodes": stats.branch_nodes}


class Workload:
    """One closed-loop request mix.

    ``block`` is the schedule period: a run always ends on a whole block, so
    every run sees the same mix. ``trace_requests`` is the fixed request
    count of the traced run, which keeps its counts repeatable.
    """

    name = ""
    layer = ""  # the layer whose QueryStats a request returns
    block = 1
    trace_requests = 0
    warmup: tuple = (0,)
    params: dict = {}

    def make_input(self, seed: int, i: int, stream: str = "run") -> dict:
        raise NotImplementedError

    def request(self, dp, inp: dict) -> tuple[dict, dict]:
        """Run one request; returns (answer, counts)."""
        raise NotImplementedError

    def ref_group(self, i: int) -> int:
        """Requests of one group share reference work, so one reference
        process handles the whole group."""
        return i

    def reference(self, dp, seed: int, i: int, inp: dict, cache: dict) -> dict:
        raise NotImplementedError

    def judge(self, inp: dict, answer: dict, ref: dict) -> Optional[str]:
        """None if the answer matches the reference, else what missed."""
        raise NotImplementedError


class SumLearn(Workload):
    """The paper's training step: value and gradient of P(sum = label)."""

    name = "sum-learn"
    layer = "inference"
    n = 3
    boost = BOOST
    fd_requests = 2  # the first requests of a run also get finite differences
    trace_requests = 20
    params = {
        "entry": "dpnl.inference.dpnl_gradient",
        "n": n,
        "order": "right_to_left_order",
        "softmax_boost": boost,
        "finite_difference_requests": fd_requests,
    }

    def make_input(self, seed, i, stream="run"):
        rng = _rng(self.name, seed, stream, i)
        rows = softmax_rows(rng, 2 * self.n, self.boost)
        return {"rows": rows, "label": sampled_label(rng, rows)}

    def request(self, dp, inp):
        spec = dp.sumtask.SumInstanceSpec(self.n, inp["rows"])
        inst, _, oracle = dp.sumtask.build_sum_instance(spec)
        order = dp.sumtask.right_to_left_order(self.n)
        grad, stats = dp.inference.dpnl_gradient(inst, inp["label"], oracle, order=order)
        return {"value": grad.value, "partials": grad.partials}, _counts(stats)

    def reference(self, dp, seed, i, inp, cache):
        spec = dp.sumtask.SumInstanceSpec(self.n, inp["rows"])
        ref = {"p": dp.sumtask.sum_distribution_reference(spec)[inp["label"]]}
        if i < self.fd_requests:
            inst, sfn, _ = dp.sumtask.build_sum_instance(spec)
            ref["fd"] = dp.inference.finite_difference_partials(inst, sfn, inp["label"])
        return ref

    def judge(self, inp, answer, ref):
        value = answer["value"]
        if not _close(value, ref["p"]):
            return "value %r, reference %r" % (value, ref["p"])
        # the probability is multilinear in the table entries, so each row's
        # partials weighted by the row reconstruct the value
        for k, (row, grads) in enumerate(zip(inp["rows"], answer["partials"])):
            total = math.fsum(p * g for p, g in zip(row, grads))
            if abs(total - value) > RECONSTRUCT_TOL:
                return "reconstruct of row %d gives %r, value %r" % (k, total, value)
        if "fd" in ref:
            worst = max(
                abs(g - f)
                for grads, fds in zip(answer["partials"], ref["fd"])
                for g, f in zip(grads, fds)
            )
            if worst > FD_TOL:
                return "partials differ from finite differences by %.3g" % worst
        return None


class SumAnytime(Workload):
    """Anytime bounds on P(sum = label); every fourth request keeps the
    per-iteration bound trace, as ``dpnl approx --trace`` does."""

    name = "sum-anytime"
    layer = "approx"
    n = 4
    boost = BOOST
    eps = 0.01
    block = 4
    share = 4  # requests per set of tables
    trace_requests = 80
    warmup = (0, 3)
    params = {
        "entry": "dpnl.approx.approx_dpnl",
        "n": n,
        "stop": "EpsAdditive(%g)" % eps,
        "heuristic": "MaxProbability",
        "order": "right_to_left_order",
        "softmax_boost": boost,
        "requests_per_table_set": share,
        "bound_trace_every": block,
    }

    def make_input(self, seed, i, stream="run"):
        tables = _rng(self.name, seed, stream, "tables%d" % self.ref_group(i))
        rows = softmax_rows(tables, 2 * self.n, self.boost)
        label = sampled_label(_rng(self.name, seed, stream, i), rows)
        return {"rows": rows, "label": label, "bound_trace": i % self.block == self.block - 1}

    def request(self, dp, inp):
        spec = dp.sumtask.SumInstanceSpec(self.n, inp["rows"])
        inst, _, oracle = dp.sumtask.build_sum_instance(spec)
        order = dp.sumtask.right_to_left_order(self.n)
        snapshots = [] if inp["bound_trace"] else None
        bounds, stats = dp.approx.approx_dpnl(
            inst,
            inp["label"],
            oracle,
            dp.approx.EpsAdditive(self.eps),
            dp.approx.MaxProbability(),
            order=order,
            trace=snapshots,
        )
        counts = {"iterations": stats.oracle_calls, "branch_nodes": stats.branch_nodes}
        if snapshots is not None:
            counts["snapshots"] = len(snapshots)
        answer = {"low": bounds.low, "up": bounds.up, "estimate": bounds.estimate}
        return answer, counts

    def ref_group(self, i):
        return i // self.share

    def reference(self, dp, seed, i, inp, cache):
        group = self.ref_group(i)
        if group not in cache:
            cache.clear()
            spec = dp.sumtask.SumInstanceSpec(self.n, inp["rows"])
            cache[group] = dp.sumtask.sum_distribution_reference(spec)
        return {"p": cache[group][inp["label"]]}

    def judge(self, inp, answer, ref):
        p = ref["p"]
        if not answer["low"] - BOUND_SLACK <= p <= answer["up"] + BOUND_SLACK:
            return "bounds [%r, %r] exclude reference %r" % (answer["low"], answer["up"], p)
        if abs(answer["estimate"] - p) > self.eps:
            return "estimate %r further than %g from %r" % (answer["estimate"], self.eps, p)
        return None


def _graph_program(rng: random.Random, nodes: int, edges: int) -> str:
    # a random path through every node guarantees that the query can
    # succeed; the remaining edges are uniform over the other ordered pairs
    inner = list(range(1, nodes - 1))
    rng.shuffle(inner)
    path = [0] + inner + [nodes - 1]
    chosen = list(zip(path, path[1:]))
    others = [
        (a, b) for a in range(nodes) for b in range(nodes) if a != b and (a, b) not in chosen
    ]
    chosen += rng.sample(others, edges - len(chosen))
    rng.shuffle(chosen)
    lines = ["reach(n0)."]
    for a, b in chosen:
        lines.append("%.4f :: edge(n%d,n%d)." % (rng.uniform(0.2, 0.8), a, b))
        lines.append("reach(n%d) :- reach(n%d), edge(n%d,n%d)." % (b, a, a, b))
    lines.append("query(reach(n%d))." % (nodes - 1))
    return "\n".join(lines) + "\n"


def _chain_program(rng: random.Random, facts: int) -> tuple[str, list]:
    lines = ["a0."]
    probs = []
    for k in range(facts):
        p = float("%.4f" % rng.uniform(0.99, 0.999))
        probs.append(p)
        lines.append("%.4f :: f%d." % (p, k))
        lines.append("a%d :- a%d, f%d." % (k + 1, k, k))
    lines.append("query(a%d)." % facts)
    return "\n".join(lines) + "\n", probs


class HornReach(Workload):
    """Parse a Horn program and compute its query's success probability.

    Each block of 25 requests holds 22 random reachability graphs and three
    chains, so p50 sits among the graphs and p90 among the shortest chains,
    whose cost is above that of the slowest graphs.
    """

    name = "horn-reach"
    layer = "inference"
    nodes = 6
    edges = 12
    chains = {8: 250, 16: 275, 24: 300}  # position in the block: facts
    probe_facts = 1000
    block = 25
    trace_requests = 25
    warmup = (0, 8)
    params = {
        "entry": "dpnl.logic.parse_program + dpnl.logic.success_probability",
        "graph_nodes": nodes,
        "graph_edges": edges,
        "edge_prob": [0.2, 0.8],
        "block": block,
        "chain_facts_by_position": chains,
        "chain_jitter": 10,
        "chain_prob": [0.99, 0.999],
        "deep_chain_probe_facts": [probe_facts, probe_facts + 199],
    }

    def make_input(self, seed, i, stream="run"):
        rng = _rng(self.name, seed, stream, i)
        facts = self.chains.get(i % self.block)
        if facts is not None:
            text, probs = _chain_program(rng, facts + rng.randrange(10))
            return {"kind": "chain", "text": text, "probs": probs}
        return {"kind": "graph", "text": _graph_program(rng, self.nodes, self.edges)}

    def probe_input(self, seed: int) -> dict:
        """The deep chain that the recursive engine cannot finish today."""
        rng = _rng(self.name, seed, "probe", 0)
        text, probs = _chain_program(rng, self.probe_facts + rng.randrange(200))
        return {"kind": "chain", "text": text, "probs": probs}

    def request(self, dp, inp):
        prog = dp.logic.parse_program(inp["text"])
        value, stats = dp.logic.success_probability(prog)
        return {"value": value}, _counts(stats)

    def reference(self, dp, seed, i, inp, cache):
        if inp["kind"] == "chain":
            return {"p": chain_closed_form(inp["probs"])}
        prog = dp.logic.parse_program(inp["text"])
        return {"p": dp.logic.success_probability_bruteforce(prog)}

    def judge(self, inp, answer, ref):
        if not _close(answer["value"], ref["p"]):
            return "%s value %r, reference %r" % (inp["kind"], answer["value"], ref["p"])
        return None


def chain_closed_form(probs: list) -> float:
    """A chain succeeds iff every fact is present."""
    return math.prod(probs)


class CnfWmc(Workload):
    """Parse weighted random 3-CNF text and count it with ProbDPLL."""

    name = "cnf-wmc"
    layer = "cnf"
    var_counts = (20, 21, 22, 23, 24)
    ratios = (2.0, 3.0, 4.26)
    block = 15
    trace_requests = 30
    warmup = (0,)
    params = {
        "entry": "dpnl.cnf.parse_dimacs + dpnl.cnf.probdpll",
        "branch": "occurrence",
        "variables": list(var_counts),
        "clause_ratios": list(ratios),
        "clause_width": 3,
        "weight": [0.1, 0.9],
    }

    def make_input(self, seed, i, stream="run"):
        nv = self.var_counts[i % len(self.var_counts)]
        ratio = self.ratios[(i // len(self.var_counts)) % len(self.ratios)]
        return random_cnf(_rng(self.name, seed, stream, i), nv, ratio)

    def request(self, dp, inp):
        formula, sigma = dp.cnf.parse_dimacs(inp["text"])
        stats = dp.core.QueryStats()
        value = dp.cnf.probdpll(formula, sigma, stats=stats)
        return {"value": value}, _counts(stats)

    def reference(self, dp, seed, i, inp, cache):
        if not cache:
            # the enumeration must agree with the library's brute force
            small = random_cnf(_rng(self.name, seed, "selftest", 0), 14, 3.0)
            formula, sigma = dp.cnf.parse_dimacs(small["text"])
            expected = dp.cnf.pwmc_bruteforce(formula, sigma)
            got = enumerate_wmc(small["nv"], small["clauses"], small["weights"])
            if not math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-15):
                raise AssertionError("enumerate_wmc %r, pwmc_bruteforce %r" % (got, expected))
            cache["checked"] = True
        return {"p": enumerate_wmc(inp["nv"], inp["clauses"], inp["weights"])}

    def judge(self, inp, answer, ref):
        if not math.isclose(answer["value"], ref["p"], rel_tol=1e-9, abs_tol=1e-15):
            return "value %r, reference %r" % (answer["value"], ref["p"])
        return None


def random_cnf(rng: random.Random, nv: int, ratio: float) -> dict:
    """Uniform random 3-CNF with ``round(nv * ratio)`` clauses and weights in
    [0.1, 0.9], as DIMACS text with ``w`` lines and as plain lists."""
    clauses = []
    for _ in range(round(nv * ratio)):
        chosen = rng.sample(range(1, nv + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
    weights = [float("%.6f" % rng.uniform(0.1, 0.9)) for _ in range(nv)]
    lines = ["c seeded random 3-CNF", "p cnf %d %d" % (nv, len(clauses))]
    lines += [" ".join(map(str, c)) + " 0" for c in clauses]
    lines += ["w %d %.6f" % (v + 1, w) for v, w in enumerate(weights)]
    return {"nv": nv, "clauses": clauses, "weights": weights, "text": "\n".join(lines) + "\n"}


def enumerate_wmc(nv: int, clauses: list, weights: list) -> float:
    """Weighted model count by enumerating all 2^nv assignments.

    Splits the variables into a low and a high half: an assignment (h, l)
    violates clause c iff neither half satisfies it, so the violated-clause
    counts of all pairs are one matrix product, and the models are the zero
    entries. Exact float32 counts (at most 128 clauses); shares no code with
    ``dpnl.cnf``, and ``dpnl.cnf.pwmc_bruteforce`` is checked against it in
    the gate self-test.
    """
    import numpy as np

    lo = nv // 2
    halves = []
    for first, size in ((0, lo), (lo, nv - lo)):
        idx = np.arange(1 << size)
        bits = [((idx >> b) & 1).astype(bool) for b in range(size)]
        w = np.ones(1 << size)
        for b in range(size):
            p = weights[first + b]
            w *= np.where(bits[b], p, 1.0 - p)
        unsat = np.ones((len(clauses), 1 << size), dtype=np.float32)
        for c, clause in enumerate(clauses):
            for lit in clause:
                v = abs(lit) - 1 - first
                if 0 <= v < size:
                    unsat[c] *= bits[v] != (lit > 0)
        halves.append((w, unsat))
    (w_lo, unsat_lo), (w_hi, unsat_hi) = halves
    total = 0.0
    for r in range(0, len(w_hi), 512):  # row chunks keep temporaries small
        violated = unsat_hi[:, r : r + 512].T @ unsat_lo
        total += float(w_hi[r : r + 512] @ ((violated == 0) @ w_lo))
    return total


WORKLOADS = {w.name: w for w in (SumLearn(), SumAnytime(), HornReach(), CnfWmc())}
