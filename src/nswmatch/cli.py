"""Command-line front end: generate instances, run solvers, verify
matchings, and batch-compare algorithms into CSV.

Exit codes: 0 ok, 2 usage or schema error, 3 domain precondition or
matching violation, 4 enumeration/bitmask budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

from . import generators
from .approx import fptas_polymul, greedy_submodular, parse_eps, qptas_bucketing
from .core import (
    BudgetExceededError,
    DomainError,
    Instance,
    NashValue,
    all_utilities,
    load_instance,
    load_matching,
    nash_value,
    utilitarian_welfare,
    validate,
)
from .exact import (
    solve_capacity_one,
    solve_dp,
    solve_dp_bounded_capacity,
    solve_exact_bucketing,
)
from .feasibility import exists_nonzero_nash
from .oracle import solve_bruteforce
from .restricted import (
    solve_degree3_capacity2,
    solve_degree_two,
    solve_single_positive_firm,
    solve_symmetric_binary,
)

# records carry exact decimal products, which can exceed CPython's default
# int<->str limit of 4300 digits; early 3.10 builds lack the limit and the call
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_BUDGET = 4
STATUS_EXIT = {"infeasible-domain": EXIT_DOMAIN, "budget-exceeded": EXIT_BUDGET}

# what reading a malformed instance, matching or suite file raises; json
# raises RecursionError on deeply nested arrays
INPUT_ERRORS = (OSError, KeyError, TypeError, ValueError, RecursionError)

CSV_HEADER = "instance_id,algo,eps,status,time_ms,nash_product,nash_welfare,ratio_vs_oracle"


def _oracle(inst, eps):
    result = solve_bruteforce(inst)
    return result.best, result.value, {}


def _fptas(inst, eps):
    mu, value, level = fptas_polymul(inst, _require_eps(eps))
    return mu, value, {"level": level}


def _deg3cap2(inst, eps):
    result = solve_degree3_capacity2(inst)
    return (None, NashValue.zero(), {}) if result is None else (*result, {})


def _feasible(inst, eps):
    ok, mu = exists_nonzero_nash(inst)
    value = NashValue.zero() if mu is None else nash_value(inst, mu)
    return mu, value, {"feasible": ok}


# name -> (inst, eps) -> (matching or None, NashValue, extra record fields).
# Each entry looks its solver up by name when called, so rebinding a
# module-level solver (as a tracer does) reaches it.
SOLVERS = {
    "oracle": _oracle,
    "cap1": lambda inst, eps: (*solve_capacity_one(inst), {}),
    "dp": lambda inst, eps: (*solve_dp(inst), {}),
    "dp2": lambda inst, eps: (*solve_dp_bounded_capacity(inst), {}),
    "buckets": lambda inst, eps: (*solve_exact_bucketing(inst), {}),
    "greedy": lambda inst, eps: (*greedy_submodular(inst), {}),
    "qptas": lambda inst, eps: (*qptas_bucketing(inst, _require_eps(eps)), {}),
    "fptas": _fptas,
    "symbin": lambda inst, eps: (*solve_symmetric_binary(inst), {}),
    "deg2": lambda inst, eps: (*solve_degree_two(inst), {}),
    "deg3cap2": _deg3cap2,
    "singlefirm": lambda inst, eps: (*solve_single_positive_firm(inst), {}),
    "feasible": _feasible,
}


def run_algo(name: str, inst: Instance, eps: str | None = None) -> dict:
    """Run one solver; returns a record dict with status, matching, product.

    Domain precondition failures map to status infeasible-domain and budget
    overruns to budget-exceeded; neither raises.
    """
    if name not in SOLVERS:
        raise ValueError(f"unknown algorithm {name!r}")
    record = {
        "algo": name,
        "eps": eps or "",
        "status": "ok",
        "matching": None,
        "nash_product": "0",
        "nash_welfare": 0.0,
    }
    try:
        mu, value, extra = SOLVERS[name](inst, eps)
    except (DomainError, BudgetExceededError) as exc:
        record["status"] = ("infeasible-domain" if isinstance(exc, DomainError)
                            else "budget-exceeded")
        record["error"] = str(exc)
        return record
    record.update(extra)
    if mu is not None:
        record["matching"] = mu.to_json()["assignment"]
    record["nash_product"] = str(value.product)
    record["nash_welfare"] = _welfare_float(value)
    if value.is_zero:
        record["status"] = "zero-optimum"
    return record


def _welfare_float(value) -> float:
    return 0.0 if value.log_welfare is None else math.exp(value.log_welfare)


def _require_eps(eps: str | None) -> str:
    if not eps:
        raise DomainError("this algorithm requires --eps p/q")
    return eps


def _dump_json(obj, path: str | None):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x != ""]


def cmd_generate(args) -> int:
    if args.kind == "random":
        if args.m is None or args.n is None:
            print("random kind needs --m and --n", file=sys.stderr)
            return EXIT_USAGE
        caps = (_parse_int_list(args.capacities) if args.capacities
                else [max(1, -(-args.m // args.n))] * args.n)
        if len(caps) != args.n:
            print("capacities length must equal n", file=sys.stderr)
            return EXIT_USAGE
        gen = generators.gen_random(args.m, args.n, caps, args.v_max,
                                    args.density, args.seed)
    elif args.kind == "partition":
        if not args.a:
            print("partition kind needs --a", file=sys.stderr)
            return EXIT_USAGE
        try:
            gen = generators.gen_from_partition(_parse_int_list(args.a), args.strict)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_USAGE
    elif args.kind == "rainbow":
        if args.r is None:
            print("rainbow kind needs --r", file=sys.stderr)
            return EXIT_USAGE
        triples, planted = generators.gen_random_3dm(args.r, args.seed)
        g = generators.gen_rainbow_from_3dm(triples, args.r, planted)
        idx = {t: k for k, t in enumerate(triples)}
        cert = tuple(idx[t] for t in planted)
        gen = generators.gen_from_rainbow(g, certificate=cert)
        gen = generators.GeneratedInstance(gen.instance, gen.kind, gen.theta,
                                           args.seed, gen.certificate)
    else:
        print(f"unknown kind {args.kind!r}", file=sys.stderr)
        return EXIT_USAGE
    _dump_json(gen.to_json(), args.out)
    return EXIT_OK


def _load(loader, path: str):
    """loader(path); None, after one line on stderr, when the file cannot be
    read or does not hold a well-formed object."""
    try:
        return loader(path)
    except INPUT_ERRORS as exc:
        print(f"cannot load {path}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return None


def cmd_solve(args) -> int:
    inst = _load(load_instance, args.instance)
    if inst is None:
        return EXIT_USAGE
    start = time.perf_counter()
    record = run_algo(args.algo, inst, args.eps)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    record["instance_id"] = Path(args.instance).stem
    record["time_ms"] = round(elapsed_ms, 3) if args.timing else None
    _dump_json(record, None)
    return STATUS_EXIT.get(record["status"], EXIT_OK)


def cmd_verify(args) -> int:
    inst = _load(load_instance, args.instance)
    mu = None if inst is None else _load(load_matching, args.matching)
    if mu is None:
        return EXIT_USAGE
    violation = validate(inst, mu)
    if violation is not None:
        _dump_json({"ok": False, "violation": {"kind": violation.kind,
                                               "detail": violation.detail}}, None)
        return EXIT_DOMAIN
    value = nash_value(inst, mu)
    _dump_json({
        "ok": True,
        "utilities": all_utilities(inst, mu),
        "nash_product": str(value.product),
        "nash_welfare": _welfare_float(value),
        "utilitarian_welfare": utilitarian_welfare(inst, mu),
    }, None)
    return EXIT_OK


def _bench_instances(spec: dict) -> list[tuple[str, Instance]]:
    out = []
    for entry in spec["instances"]:
        kind = entry["kind"]
        if kind == "random":
            gen = generators.gen_random(
                entry["m"], entry["n"], entry["capacities"],
                entry.get("v_max", 5), entry.get("density", 1.0), entry["seed"])
        elif kind == "partition":
            gen = generators.gen_from_partition(entry["a"], entry.get("strict", False))
        elif kind == "rainbow":
            triples, planted = generators.gen_random_3dm(entry["r"], entry["seed"])
            g = generators.gen_rainbow_from_3dm(triples, entry["r"], planted)
            gen = generators.gen_from_rainbow(g)
        elif kind == "file":
            out.append((entry["id"], load_instance(entry["path"])))
            continue
        else:
            raise KeyError(f"unknown instance kind {kind!r}")
        out.append((entry["id"], gen.instance))
    return out


def cmd_bench(args) -> int:
    try:
        spec = json.loads(Path(args.suite).read_text())
        instances = _bench_instances(spec)
        algos = [(a["name"], a.get("eps")) for a in spec["algos"]]
        for name, eps in algos:
            if name not in SOLVERS:
                raise KeyError(f"unknown algorithm {name!r}")
            if eps is not None:
                parse_eps(eps)
    except INPUT_ERRORS as exc:
        print(f"malformed suite spec: {exc}", file=sys.stderr)
        return EXIT_USAGE

    results = []
    for inst_id, inst in instances:
        for algo, eps in algos:
            start = time.perf_counter()
            record = run_algo(algo, inst, eps)
            record["time_ms"] = (time.perf_counter() - start) * 1000.0
            results.append((inst_id, record))

    oracle_products: dict[str, int] = {}
    for inst_id, record in results:
        if record["algo"] == "oracle" and record["status"] in ("ok", "zero-optimum"):
            oracle_products[inst_id] = int(record["nash_product"])

    sizes = {inst_id: inst.m + inst.n for inst_id, inst in instances}
    lines = [CSV_HEADER]
    for inst_id, record in results:
        ratio = ""
        if inst_id in oracle_products and record["status"] in ("ok", "zero-optimum"):
            opt = oracle_products[inst_id]
            got = int(record["nash_product"])
            if opt == 0:
                ratio = "1.0" if got == 0 else ""
            else:
                ratio = repr((got / opt) ** (1.0 / sizes[inst_id]))
        time_field = repr(round(record["time_ms"], 3)) if args.timing else ""
        lines.append(",".join([
            inst_id,
            record["algo"],
            record["eps"],
            record["status"],
            time_field,
            record["nash_product"],
            repr(record["nash_welfare"]),
            ratio,
        ]))
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nswmatch",
        description="Nash-welfare-optimal many-to-one matching toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a generated instance as JSON")
    p_gen.add_argument("--kind", required=True)
    p_gen.add_argument("--m", type=int)
    p_gen.add_argument("--n", type=int)
    p_gen.add_argument("--capacities")
    p_gen.add_argument("--v-max", type=int, default=5)
    p_gen.add_argument("--density", type=float, default=1.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--a", help="comma-separated partition values")
    p_gen.add_argument("--strict", action="store_true")
    p_gen.add_argument("--r", type=int, help="rainbow graph class count")
    p_gen.add_argument("--out")
    p_gen.set_defaults(func=cmd_generate)

    p_solve = sub.add_parser("solve", help="run one solver on an instance file")
    p_solve.add_argument("instance")
    p_solve.add_argument("--algo", required=True, choices=SOLVERS)
    p_solve.add_argument("--eps", help="exact rational, e.g. 1/2")
    p_solve.add_argument("--timing", action="store_true")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="check a matching against an instance")
    p_verify.add_argument("instance")
    p_verify.add_argument("matching")
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="run a suite spec, emit CSV")
    p_bench.add_argument("suite")
    p_bench.add_argument("--out")
    p_bench.add_argument("--timing", action="store_true",
                         help="fill the time_ms column (output is then not "
                              "byte-reproducible)")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    if getattr(args, "eps", None):
        try:
            parse_eps(args.eps)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_USAGE
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
