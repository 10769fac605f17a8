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
from .approx import greedy_submodular, parse_eps, qptas_bucketing
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
    DEFAULT_CAPACITY_BOUND,
    solve_capacity_one,
    solve_dp,
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


def _dp2(inst, eps):
    """dp on the constant-capacity domain of the paper's second DP."""
    if max(inst.capacities) > DEFAULT_CAPACITY_BOUND:
        raise DomainError(f"capacity {max(inst.capacities)} exceeds constant bound "
                          f"{DEFAULT_CAPACITY_BOUND}")
    return (*solve_dp(inst), {})


def _fptas(inst, eps):
    """dp behind the eps check: the exact optimum P meets the paper's FPTAS
    window P <= opt <= P * (1+eps)^(n+1) for every eps."""
    parse_eps(_require_eps(eps))
    return (*solve_dp(inst), {})


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
    "dp2": _dp2,
    "buckets": lambda inst, eps: (*solve_exact_bucketing(inst), {}),
    "greedy": lambda inst, eps: (*greedy_submodular(inst), {}),
    "qptas": lambda inst, eps: (*qptas_bucketing(inst, _require_eps(eps)), {}),
    "fptas": _fptas,
    "symbin": lambda inst, eps: (*solve_symmetric_binary(inst), {}),
    "deg2": lambda inst, eps: (*solve_degree_two(inst), {}),
    "deg3cap2": lambda inst, eps: (*solve_degree3_capacity2(inst), {}),
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
    record["nash_welfare"] = nash_welfare(value.product, inst.m + inst.n)
    if value.is_zero:
        record["status"] = "zero-optimum"
    return record


def nash_welfare(product: int, agents: int) -> float | None:
    """The reported Nash welfare, the agents-th root of the exact Nash
    product, as exp(ln product / agents): 0.0 for a zero product, and None
    (null in JSON, an empty CSV field) where it exceeds the float range."""
    if product == 0:
        return 0.0
    try:
        return math.exp(math.log(product) / agents)
    except OverflowError:
        return None


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


def _field(spec: dict, key: str, types: tuple, default=None):
    """spec[key] (or a non-None default when absent), whose type must be
    exactly one of types: a bool is no int and an int no bool."""
    value = spec[key] if default is None or key in spec else default
    if type(value) not in types:
        raise TypeError(f"{key} must be {'/'.join(t.__name__ for t in types)}, got {value!r}")
    return value


def generate_instance(spec: dict) -> generators.GeneratedInstance:
    """The instance a generator spec names: "kind" and that kind's
    parameters, keyed as `generate`'s options are.  random needs m, n,
    capacities and seed; rainbow needs r and seed.  m, n, r, seed and v_max
    are plain ints, density an int or float and strict a bool.  KeyError,
    TypeError or ValueError when the spec is malformed; BudgetExceededError
    when a partition's balanced-split search is too large."""
    kind = spec["kind"]
    if kind == "random":
        m, n, seed = (_field(spec, key, (int,)) for key in ("m", "n", "seed"))
        caps = spec["capacities"]
        if len(caps) != n:
            raise ValueError("capacities length must equal n")
        return generators.gen_random(m, n, caps, _field(spec, "v_max", (int,), 5),
                                     _field(spec, "density", (int, float), 1.0), seed)
    if kind == "partition":
        return generators.gen_from_partition(spec["a"], _field(spec, "strict", (bool,), False))
    if kind == "rainbow":
        r, seed = _field(spec, "r", (int,)), _field(spec, "seed", (int,))
        triples, planted = generators.gen_random_3dm(r, seed)
        g = generators.gen_rainbow_from_3dm(triples, r, planted)
        idx = {t: k for k, t in enumerate(triples)}
        gen = generators.gen_from_rainbow(g, certificate=tuple(idx[t] for t in planted))
        return generators.GeneratedInstance(gen.instance, gen.kind, gen.theta,
                                            seed, gen.certificate)
    raise ValueError(f"unknown kind {kind!r}")


def cmd_generate(args) -> int:
    spec = {key: value for key, value in vars(args).items() if value is not None}
    try:
        for key in ("a", "capacities"):
            if key in spec:
                spec[key] = _parse_int_list(spec[key])
        if "capacities" not in spec and "m" in spec and "n" in spec:
            # ceil(m / n) workers a firm, at least 1
            spec["capacities"] = [max(1, -(-args.m // args.n))] * args.n if args.n > 0 else []
        gen = generate_instance(spec)
    except (*INPUT_ERRORS, BudgetExceededError) as exc:
        print(f"cannot generate {args.kind}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_BUDGET if isinstance(exc, BudgetExceededError) else EXIT_USAGE
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
        "nash_welfare": nash_welfare(value.product, inst.m + inst.n),
        "utilitarian_welfare": utilitarian_welfare(inst, mu),
    }, None)
    return EXIT_OK


def cmd_bench(args) -> int:
    try:
        spec = json.loads(Path(args.suite).read_text())
        instances: dict[str, Instance] = {}
        for entry in spec["instances"]:
            inst_id = entry["id"]
            if type(inst_id) is not str or inst_id in instances:
                raise ValueError(f"instance id {inst_id!r} is not a string or repeats")
            instances[inst_id] = (load_instance(entry["path"]) if entry["kind"] == "file"
                                  else generate_instance(entry).instance)
        algos = [(a["name"], a.get("eps")) for a in spec["algos"]]
        for name, eps in algos:
            if name not in SOLVERS:
                raise KeyError(f"unknown algorithm {name!r}")
            if eps is not None:
                if type(eps) is not str:
                    raise TypeError(f"eps {eps!r} is not a string p/q")
                parse_eps(eps)
    except INPUT_ERRORS as exc:
        print(f"malformed suite spec: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"cannot generate a suite instance: {exc}", file=sys.stderr)
        return EXIT_BUDGET

    results = []
    for inst_id, inst in instances.items():
        for algo, eps in algos:
            start = time.perf_counter()
            record = run_algo(algo, inst, eps)
            record["time_ms"] = (time.perf_counter() - start) * 1000.0
            results.append((inst_id, record))

    oracle_products: dict[str, int] = {}
    for inst_id, record in results:
        if record["algo"] == "oracle" and record["status"] in ("ok", "zero-optimum"):
            oracle_products[inst_id] = int(record["nash_product"])

    sizes = {inst_id: inst.m + inst.n for inst_id, inst in instances.items()}
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
            "" if record["nash_welfare"] is None else repr(record["nash_welfare"]),
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
    if getattr(args, "eps", None) is not None:
        try:
            parse_eps(args.eps)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_USAGE
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
