"""Command-line front end: parse inputs, run the engines, emit reports."""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

import numpy as np

from . import approx as approx_mod
from . import logic as logic_mod
from .cnf import parse_dimacs, parse_weights, probdpll, pwmc_bruteforce, WeightMap
from .core import InvalidInstanceError, QueryStats
from .inference import (
    SequentialOrder,
    dpnl,
    dpnl_gradient,
    finite_difference_partials,
    output_distribution,
)
from .sumtask import (
    SumInstanceSpec,
    build_sum_instance,
    parse_dist_rows,
    right_to_left_order,
    sum_distribution_reference,
)


def _fmt(p: float) -> str:
    return "%.12g" % p


def _emit(args, command: str, result, stats: QueryStats, bounds=None, seed=None) -> None:
    """Print the stats line; write the JSON run report if ``--json`` is set."""
    print(
        "stats: oracle_calls=%d branch_nodes=%d cache_hits=%d pruned=%d wall_time_s=%.6f"
        % (stats.oracle_calls, stats.branch_nodes, stats.cache_hits, stats.pruned, stats.wall_time)
    )
    if args.json:
        report = {
            "command": command,
            "result": result,
            "low": bounds.low if bounds else None,
            "up": bounds.up if bounds else None,
            "estimate": bounds.estimate if bounds else None,
            "oracle_calls": stats.oracle_calls,
            "branch_nodes": stats.branch_nodes,
            "cache_hits": stats.cache_hits,
            "wall_time_s": stats.wall_time,
            "seed": seed,
            "pruned": stats.pruned,
        }
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")


def _cross_check(name: str, got: float, reference: float, tol: float) -> int:
    diff = abs(got - reference)
    print("%s = %s  |diff| = %.3e  (tol %.1e)" % (name, _fmt(reference), diff, tol))
    if not diff <= tol:
        print("cross-check FAILED: discrepancy exceeds tolerance", file=sys.stderr)
        return 1
    return 0


def cmd_pwmc(args) -> int:
    with open(args.cnf) as fh:
        formula, file_weights = parse_dimacs(fh.read())
    if args.weights:
        with open(args.weights) as fh:
            sigma = parse_weights(fh.read(), formula.num_vars)
    elif file_weights is not None:
        sigma = file_weights
    else:
        sigma = WeightMap.uniform(formula.num_vars)
    stats = QueryStats()
    value = probdpll(formula, sigma, stats=stats)
    print("pwmc = %s" % _fmt(value))
    rc = 0
    if args.brute:
        rc = _cross_check("brute", value, pwmc_bruteforce(formula, sigma), args.tol)
    _emit(args, "pwmc", value, stats)
    return rc


def _reject_unread(args, when: str, *names: str) -> None:
    """Reject each of the options ``names`` that was given, since ``when``
    the command does not read it."""
    for name in names:
        value = getattr(args, name)
        if value is not None and value is not False:
            raise InvalidInstanceError("--%s does not apply %s" % (name.replace("_", "-"), when))


def _sum_query(args):
    """Spec, instance, symbolic function, oracle and order of the sum task."""
    if args.n is None:
        raise InvalidInstanceError("need --n")
    if args.uniform:
        _reject_unread(args, "with --uniform", "dists")
        spec = SumInstanceSpec.uniform(args.n)
    elif args.dists:
        text = args.dists
        if not text.lstrip().startswith("["):
            with open(text) as fh:
                text = fh.read()
        spec = SumInstanceSpec(args.n, parse_dist_rows(json.loads(text)))
    else:
        raise InvalidInstanceError("need --uniform or --dists")
    inst, sfn, oracle = build_sum_instance(spec)
    if args.order in (None, "r2l"):
        order = right_to_left_order(spec.n)
    elif args.order == "seq":
        order = SequentialOrder()
    else:
        order = SequentialOrder(range(2 * spec.n - 1, -1, -1))
    return spec, inst, sfn, oracle, order


def _read_program(path: str) -> logic_mod.HornProgram:
    with open(path) as fh:
        return logic_mod.parse_program(fh.read())


def cmd_sum(args) -> int:
    spec, inst, _, oracle, order = _sum_query(args)
    rc = 0
    if args.full:
        _reject_unread(args, "with --full", "sum")
        dist, stats = output_distribution(inst, oracle, order=order)
        for o, p in dist.items():
            print("%d %s" % (o, _fmt(p)))
        total = sum(dist.values())
        print("total = %s" % _fmt(total))
        if not abs(total - 1.0) <= args.tol:
            print("distribution does not sum to 1 within tolerance", file=sys.stderr)
            rc = 1
        result = list(dist.values())
    else:
        if args.sum is None:
            raise InvalidInstanceError("need --sum or --full")
        result, stats = dpnl(inst, args.sum, oracle, order=order)
        print("P(sum = %d) = %s" % (args.sum, _fmt(result)))
        dist = {args.sum: result}
    if args.brute:
        # the output whose value is farthest from the convolution reference
        ref = sum_distribution_reference(spec)
        o = max(dist, key=lambda o: abs(dist[o] - ref[o]))
        rc = max(rc, _cross_check("reference P(sum = %d)" % o, dist[o], ref[o], args.tol))
    _emit(args, "sum", result, stats)
    return rc


def _query_from_args(args):
    """Instance, symbolic function, oracle, order and queried output: the
    ``--program`` file's query (output 1), else the sum task's ``--sum``."""
    if args.program:
        _reject_unread(args, "with --program", "n", "uniform", "dists", "sum", "order")
        prog = _read_program(args.program)
        inst, sfn, oracle = logic_mod.logic_instance(prog)
        return inst, sfn, oracle, logic_mod.applicable_rule_order(prog), 1
    _, inst, sfn, oracle, order = _sum_query(args)
    if args.sum is None:
        raise InvalidInstanceError("need --sum")
    return inst, sfn, oracle, order, args.sum


def _build_stop(args) -> approx_mod.StopPolicy:
    if args.eps is not None and args.stop not in ("eps-mult", "eps-add"):
        raise InvalidInstanceError("--eps applies to --stop eps-mult and eps-add only")
    if args.time is not None and args.stop != "time":
        raise InvalidInstanceError("--time applies to --stop time only")
    if args.stop == "eps-mult":
        if args.eps is None:
            raise InvalidInstanceError("--stop eps-mult needs --eps")
        return approx_mod.EpsMultiplicative(args.eps)
    if args.stop == "eps-add":
        if args.eps is None:
            raise InvalidInstanceError("--stop eps-add needs --eps")
        return approx_mod.EpsAdditive(args.eps)
    if args.stop == "time":
        if args.time is None:
            raise InvalidInstanceError("--stop time needs --time")
        return approx_mod.TimeBudget(args.time)
    return approx_mod.Exhaustive()


def _build_heuristic(args) -> approx_mod.ExploreHeuristic:
    if args.heuristic == "random":
        return approx_mod.RandomChoice(0 if args.seed is None else args.seed)
    if args.seed is not None:
        raise InvalidInstanceError("--seed applies to --heuristic random only")
    if args.heuristic == "maxprob":
        return approx_mod.MaxProbability()
    return approx_mod.Fifo()


def cmd_approx(args) -> int:
    inst, _, oracle, order, target = _query_from_args(args)
    stop = _build_stop(args)
    heuristic = _build_heuristic(args)
    trace = [] if args.trace else None
    bounds, stats = approx_mod.approx_dpnl(
        inst, target, oracle, stop, heuristic, order=order, trace=trace
    )
    if args.trace:
        with open(args.trace, "w") as fh:
            for snap in trace:
                fh.write(
                    json.dumps(
                        {"iteration": snap.iteration, "low": snap.bounds.low, "up": snap.bounds.up}
                    )
                )
                fh.write("\n")
    print("low = %s" % _fmt(bounds.low))
    print("up = %s" % _fmt(bounds.up))
    print("estimate = %s" % _fmt(bounds.estimate))
    _emit(args, "approx", bounds.estimate, stats, bounds, getattr(heuristic, "seed", None))
    return 0


def cmd_logic(args) -> int:
    if args.count_provenance:
        _reject_unread(args, "with --count-provenance", "program", "brute")
        if args.nodes is None:
            raise InvalidInstanceError("--count-provenance needs --nodes")
        clauses = logic_mod.provenance_clause_count(args.nodes)
        edge_prob = 0.5 if args.edge_prob is None else args.edge_prob
        table = [[edge_prob] * args.nodes for _ in range(args.nodes)]
        prog = logic_mod.reachability_program(args.nodes, table)
    else:
        _reject_unread(args, "without --count-provenance", "nodes", "edge_prob")
        if not args.program:
            raise InvalidInstanceError("need --program or --count-provenance")
        prog = _read_program(args.program)
    order = SequentialOrder() if args.order == "seq" else logic_mod.applicable_rule_order(prog)
    value, stats = logic_mod.success_probability(prog, order=order)
    if args.count_provenance:
        print("provenance_clauses = %d" % clauses)
        print("branch_nodes = %d" % stats.branch_nodes)
    print("P(query) = %s" % _fmt(value))
    rc = 0
    if args.brute:
        if prog.m > 12:
            raise InvalidInstanceError(
                "--brute supports at most 12 probabilistic rules, program has %d" % prog.m
            )
        rc = _cross_check(
            "brute", value, logic_mod.success_probability_bruteforce(prog), args.tol
        )
    _emit(args, "logic", value, stats)
    return rc


def cmd_gradcheck(args) -> int:
    inst, sfn, oracle, order, target = _query_from_args(args)
    grad, stats = dpnl_gradient(inst, target, oracle, order=order)
    numeric = finite_difference_partials(inst, sfn, target, h=args.h)
    rels = [
        abs(a - nmr) / max(1.0, abs(a), abs(nmr))
        for row_a, row_n in zip(grad.partials, numeric)
        for a, nmr in zip(row_a, row_n)
    ]
    max_rel = float(np.max(rels))  # unlike max(), np.max keeps a NaN
    print("value = %s" % _fmt(grad.value))
    print("max_rel_err = %.3e  (tol %.1e)" % (max_rel, args.tol))
    rc = 0
    if not max_rel <= args.tol:
        print("gradient check FAILED", file=sys.stderr)
        rc = 1
    _emit(args, "gradcheck", max_rel, stats)
    return rc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpnl",
        description="Exact and anytime-approximate inference over independent "
        "finite-domain random variables, guided by oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help, tol=1e-9):
        p = sub.add_parser(name, help=help)
        p.add_argument("--json", help="write the JSON run report to this file")
        if tol is not None:
            p.add_argument("--tol", type=float, default=tol, help="cross-check tolerance")
        p.set_defaults(fn=fn)
        return p

    def sum_options(p):
        p.add_argument("--n", type=int, help="digits per summand")
        p.add_argument("--uniform", action="store_true", help="uniform digit distributions")
        p.add_argument("--dists", help="JSON (inline or file): 2N rows of 10 probabilities")
        p.add_argument("--sum", type=int, help="query this output value")
        p.add_argument("--order", choices=["r2l", "seq", "rev"], help="digit order (default r2l)")

    p = command("pwmc", cmd_pwmc, "weighted model count of a DIMACS CNF")
    p.add_argument("--cnf", required=True, help="DIMACS CNF file, 'w <var> <prob>' lines allowed")
    p.add_argument("--weights", help="separate weights file ('w <var> <prob>' lines)")
    p.add_argument("--brute", action="store_true", help="cross-check against enumeration")

    p = command("sum", cmd_sum, "digit-sum task probabilities")
    sum_options(p)
    p.add_argument("--full", action="store_true", help="whole output distribution")
    p.add_argument("--brute", action="store_true", help="cross-check against the convolution reference")

    p = command("approx", cmd_approx, "anytime bounds for one output probability", tol=None)
    sum_options(p)
    p.add_argument("--program", help="logic program file (queries output 1)")
    p.add_argument(
        "--stop", choices=["eps-mult", "eps-add", "time", "exhaustive"], required=True
    )
    p.add_argument("--eps", type=float, help="epsilon for eps-mult / eps-add")
    p.add_argument("--time", type=float, help="seconds for the time stop")
    p.add_argument("--heuristic", choices=["maxprob", "fifo", "random"], default="maxprob")
    p.add_argument("--seed", type=int, help="seed of the random heuristic (default 0)")
    p.add_argument("--trace", help="write per-iteration bounds as JSON lines")

    p = command("logic", cmd_logic, "query success probability of a Horn program")
    p.add_argument("--program", help="program file")
    p.add_argument("--brute", action="store_true", help="cross-check against subset enumeration")
    p.add_argument("--order", choices=["applicable", "seq"], help="rule order (default applicable)")
    p.add_argument("--count-provenance", action="store_true", dest="count_provenance")
    p.add_argument("--nodes", type=int, help="complete-graph size for --count-provenance")
    p.add_argument("--edge-prob", type=float, dest="edge_prob", help="edge probability (default 0.5)")

    # central differences bottom out around 1e-8 in float64, 1e-9 is unreachable
    p = command(
        "gradcheck", cmd_gradcheck, "compare exact gradients to finite differences", tol=1e-6
    )
    sum_options(p)
    p.add_argument("--program", help="logic program file (queries output 1)")
    p.add_argument("--h", type=float, default=1e-6, help="finite-difference step")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
