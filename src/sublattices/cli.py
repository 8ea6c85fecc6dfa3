"""Command line front end.

Subcommands: count (closed-form counts), enumerate (stream Hermite forms as
JSON lines), poly (polynomial-in-the-prime answers), verify (diff formulas
against the brute-force oracle).  Structured output goes to stdout; timing and
warnings go to stderr so reports stay byte-stable across runs and --jobs values.

Exit codes: 0 success, 1 verification mismatch or internal inconsistency,
2 invalid input, 3 work would exceed the budget (matrices, indices for
count cocyclic-cumulative, or divisor tuples for count fn --method recursion),
or a minor of a verify scope could leave int64 (only a raised --budget gets there).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from itertools import islice
from math import comb, prod

from .arith import factorize, ord_p, partitions
from .census import (
    class_count,
    class_size,
    class_size_prime,
    cocyclic_count,
    cocyclic_count_upto,
    sublattice_count,
    sublattice_count_prime_power,
    sublattice_count_recursion,
    validate_chain,
)
from .enumeration import DEFAULT_BUDGET, BudgetExceededError, hnf_stream
from .polyalg import (
    class_size_poly,
    cocyclic_count_poly,
    leading_terms_check,
    poly_eval,
    poly_render,
    sublattice_count_poly,
)

SCHEMA_VERSION = "1"
CACHE_ENV = "SUBLATTICE_CACHE"


def _emit(args, command: str, params: dict, payload, plain, table, code: int = 0) -> int:
    """Print one answer in the chosen --format and return the exit code.

    payload goes into the JSON document, plain is the list of lines for
    --format plain, and table the csv rows, header first.
    """
    if args.format == "plain":
        print(*plain, sep="\n")
    elif args.format == "csv":
        import csv

        csv.writer(sys.stdout).writerows(table)
    else:
        doc = {"schema_version": SCHEMA_VERSION, "command": command,
               "params": params, "payload": payload}
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    return code


def _emit_value(args, command: str, params: dict, value: int) -> int:
    keys = sorted(params)
    table = [keys + ["value"], [params[k] for k in keys] + [str(value)]]
    return _emit(args, command, params, {"value": str(value)}, [value], table)


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be comma-separated integers, got {text!r}")


# ---------------------------------------------------------------- cache

def _cache_path(args) -> str | None:
    if getattr(args, "cache", None):
        return args.cache
    return os.environ.get(CACHE_ENV) or None


def _load_memo(path: str) -> dict:
    """Read a coefficient cache, dropping it with a warning if anything is off.

    Keys look like "n:k:a1,...,aN" for a nondecreasing exponent tuple of length
    n summing to k; values are constant-first integer coefficient lists.  The
    program stores whole levels (n, k), so each level must hold every partition
    of k into n parts, and its class sizes must sum to the sublattice count of
    index T**k at T = 2 and T = 3, from the prime-power formula, whose cost
    does not grow with k beyond the size of the count.
    """
    if not os.path.exists(path):
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("cache root must be an object")
        levels: dict = {}
        for key, val in raw.items():
            n_text, k_text, exps_text = key.split(":")
            exps = tuple(int(x) for x in exps_text.split(","))
            if int(n_text) != len(exps) or int(k_text) != sum(exps):
                raise ValueError(f"key {key!r} disagrees with its exponents")
            if any(a < 0 for a in exps) or list(exps) != sorted(exps):
                raise ValueError(f"bad exponent key {key!r}")
            if not isinstance(val, list) or not all(
                isinstance(c, int) and not isinstance(c, bool) for c in val
            ):
                raise ValueError(f"bad coefficient list under {key!r}")
            if val and val[-1] == 0:
                raise ValueError(f"coefficient list under {key!r} has trailing zeros")
            levels.setdefault((len(exps), sum(exps)), {})[exps] = val
        for (n, k), level in levels.items():
            # every key is a partition of k into n parts, so the level is whole
            # when no partition is left over; the walk stops one past the level
            if set(level) != set(islice(partitions(n, k), len(level) + 1)):
                raise ValueError(f"level {n}:{k} lacks a partition")
            for t in (2, 3):
                want = sublattice_count_prime_power(n, t, k)
                if sum(poly_eval(c, t) for c in level.values()) != want:
                    raise ValueError(f"level {n}:{k} does not sum to the count at T={t}")
        return {exps: val for level in levels.values() for exps, val in level.items()}
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"warning: ignoring unusable cache {path}: {exc}", file=sys.stderr)
        return {}


def _save_memo(path: str, memo: dict) -> None:
    import tempfile

    payload = {f"{len(k)}:{sum(k)}:{','.join(map(str, k))}": v for k, v in sorted(memo.items())}
    target_dir = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=target_dir, suffix=".cache")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        print(f"warning: could not write cache {path}: {exc}", file=sys.stderr)


def _cache_levels(args, levels) -> None:
    """Add every class of the levels (n, k) a command touched to the named cache file.

    Nothing reads a class size back: one closed-form tuple costs less than the load check.
    """
    path = _cache_path(args)
    if not path:
        return
    memo = _load_memo(path)
    for n, k in levels:
        memo.update({t: class_size_poly(t) for t in partitions(n, k) if t not in memo})
    _save_memo(path, memo)


# ---------------------------------------------------------------- count

def _cmd_count_fn(args) -> int:
    if args.method == "recursion":
        if args.n > 0 and args.m > 0:
            # the recursion visits every ordered n-tuple of divisors with product m
            tuples = prod(comb(e + args.n - 1, e) for _, e in factorize(args.m))
            if tuples > DEFAULT_BUDGET:
                scope = f"count fn n={args.n} m={args.m}"
                raise BudgetExceededError(tuples, DEFAULT_BUDGET, scope, unit="divisor tuples")
        value = sublattice_count_recursion(args.n, args.m)
    else:
        value = sublattice_count(args.n, args.m)
    params = {"n": args.n, "m": args.m, "method": args.method}
    return _emit_value(args, "count fn", params, value)


def _cmd_count_gn(args) -> int:
    value = class_count(args.n, args.m)
    return _emit_value(args, "count gn", {"n": args.n, "m": args.m}, value)


def _cmd_count_class(args) -> int:
    by_chain = args.divisors is not None
    by_partition = args.partition is not None or args.prime is not None or args.n is not None
    if by_chain == by_partition:
        raise ValueError("give either --divisors, or --n with --prime and --partition")
    if by_chain:
        chain = validate_chain(_parse_int_list(args.divisors, "--divisors"))
        value = class_size(chain)
        params = {"divisors": ",".join(map(str, chain))}
        # the index is factored a second time only for a cache file
        primes = [p for p, _ in factorize(chain[-1])] if _cache_path(args) else []
        levels = [(len(chain), sum(ord_p(p, d) for d in chain)) for p in primes]
    else:
        if args.n is None or args.prime is None or args.partition is None:
            raise ValueError("the partition form needs --n, --prime, and --partition together")
        exps = _parse_int_list(args.partition, "--partition")
        if len(exps) != args.n:
            raise ValueError(f"--partition must have exactly n={args.n} parts, got {len(exps)}")
        value = class_size_prime(exps, args.prime)
        params = {"n": args.n, "prime": args.prime, "partition": ",".join(map(str, exps))}
        levels = [(args.n, sum(exps))]
    _cache_levels(args, levels)
    return _emit_value(args, "count class", params, value)


def _cmd_count_cocyclic(args) -> int:
    value = cocyclic_count(args.n, args.m)
    return _emit_value(args, "count cocyclic", {"n": args.n, "m": args.m}, value)


def _cmd_count_cumulative(args) -> int:
    # the sieve visits every index up to --max
    if args.max > args.budget:
        raise BudgetExceededError(
            args.max, args.budget, f"count cocyclic-cumulative n={args.n} max={args.max}",
            unit="indices",
        )
    value = cocyclic_count_upto(args.n, args.max)
    return _emit_value(
        args, "count cocyclic-cumulative", {"n": args.n, "max": args.max}, value
    )


# ---------------------------------------------------------------- enumerate

def _cmd_enumerate(args) -> int:
    from .forms import invariant_factors

    if args.limit is not None and args.limit < 0:
        raise ValueError(f"--limit must be nonnegative, got {args.limit}")
    total = sublattice_count(args.n, args.m)
    effective = total if args.limit is None else min(total, args.limit)
    if effective > args.budget:
        raise BudgetExceededError(effective, args.budget, f"enumerate n={args.n} m={args.m}")
    emitted = 0
    for h in hnf_stream(args.n, args.m):
        if args.limit is not None and emitted >= args.limit:
            break
        line = {
            "schema_version": SCHEMA_VERSION,
            "kind": "hnf",
            "n": args.n,
            "m": args.m,
            "rows": [list(r) for r in h.rows],
        }
        if args.with_snf:
            line["snf"] = ",".join(map(str, invariant_factors(h.rows)))
        print(json.dumps(line, sort_keys=True, separators=(",", ":")))
        emitted += 1
    return 0


# ---------------------------------------------------------------- poly

def _emit_poly(args, command: str, params: dict, coeffs: list[int]) -> int:
    rendered = poly_render(coeffs)
    payload = {"coefficients": [str(c) for c in coeffs], "rendered": rendered}
    plain = [rendered]
    table = [["degree", "coefficient"]] + [[i, str(c)] for i, c in enumerate(coeffs)]
    if args.eval is None:
        return _emit(args, command, params, payload, plain, table)
    value = poly_eval(coeffs, args.eval)
    payload["value"] = str(value)
    code = _emit(args, command, dict(params, eval=args.eval), payload, plain + [value], table)
    if args.format == "csv":
        # the value follows the table as a bare line
        print(value)
    return code


def _cmd_poly_class(args) -> int:
    exps = _parse_int_list(args.partition, "--partition")
    if len(exps) != args.n:
        raise ValueError(f"--partition must have exactly n={args.n} parts, got {len(exps)}")
    coeffs = class_size_poly(exps)
    _cache_levels(args, [(args.n, sum(exps))])
    params = {"n": args.n, "partition": ",".join(map(str, exps))}
    return _emit_poly(args, "poly class", params, coeffs)


def _cmd_poly_fn(args) -> int:
    coeffs = sublattice_count_poly(args.n, args.r)
    _cache_levels(args, [(args.n, args.r)])
    return _emit_poly(args, "poly fn", {"n": args.n, "r": args.r}, coeffs)


def _cmd_poly_cocyclic(args) -> int:
    coeffs = cocyclic_count_poly(args.n, args.r)
    return _emit_poly(args, "poly cocyclic", {"n": args.n, "r": args.r}, coeffs)


def _cmd_poly_leading(args) -> int:
    ok, report = leading_terms_check(args.n, args.r)
    payload = {
        "degree": report["degree"],
        "full_top": [str(c) for c in report["full_top"]],
        "cocyclic_top": [str(c) for c in report["cocyclic_top"]],
        "difference_degree": report["difference_degree"],
        "match": ok,
    }
    plain = [
        f"{'ok' if ok else 'FAIL'} degree {report['degree']},"
        f" top coefficients {report['full_top']} vs {report['cocyclic_top']}"
    ]
    table = [
        ["n", "r", "degree", "difference_degree", "match"],
        [args.n, args.r, report["degree"], report["difference_degree"], str(ok).lower()],
    ]
    params = {"n": args.n, "r": args.r}
    return _emit(args, "poly leading-check", params, payload, plain, table, code=0 if ok else 1)


# ---------------------------------------------------------------- verify

def _cmd_verify(args) -> int:
    # the oracle loads NumPy; no other command needs it
    from .oracle import VerifyReport, verify_index, verify_prime_powers, verify_suite

    t0 = time.perf_counter()
    if args.mode == "suite":
        if any(flag is not None for flag in (args.n, args.m, args.prime, args.max_r)):
            raise ValueError("'verify suite' takes no scope flags")
        command, params, scope = "verify suite", {}, "suite"
        sections = verify_suite(jobs=args.jobs, budget=args.budget).sections
    elif args.m is not None and (args.prime is not None or args.max_r is not None):
        raise ValueError("give either --m or --prime/--max-r, not both")
    elif args.n is not None and args.m is not None:
        command, params = "verify index", {"n": args.n, "m": args.m}
        scope = f"n={args.n} m={args.m}"
        sections = [verify_index(args.n, args.m, jobs=args.jobs, budget=args.budget)]
    elif args.n is not None and args.prime is not None and args.max_r is not None:
        command = "verify prime-powers"
        params = {"n": args.n, "prime": args.prime, "max_r": args.max_r}
        scope = f"n={args.n} p={args.prime} r=1..{args.max_r}"
        sections = verify_prime_powers(
            args.n, args.prime, args.max_r, jobs=args.jobs, budget=args.budget
        )
    else:
        raise ValueError("verify needs 'suite', or --n with --m, or --n with --prime and --max-r")
    report = VerifyReport(scope, sections, elapsed=time.perf_counter() - t0)
    print(f"elapsed {report.elapsed:.2f}s", file=sys.stderr)
    plain = [f"{'ok  ' if s.ok else 'FAIL'} {s.scope}" for s in sections]
    plain.append("all sections match" if report.all_match else "MISMATCH found")
    table = [["section", "kind", "name", "detail", "ok"]]
    for s in sections:
        table += [
            [s.scope, "class", ",".join(map(str, r.key)),
             f"formula={r.formula} oracle={r.oracle}", str(r.match).lower()]
            for r in s.rows
        ]
        table += [[s.scope, "check", c.name, c.detail, str(c.ok).lower()] for c in s.checks]
    code = 0 if report.all_match else 1
    return _emit(args, command, params, report.to_payload(), plain, table, code=code)


# ---------------------------------------------------------------- parser

def _budget(text: str) -> int:
    """--budget of enumerate, verify and count cocyclic-cumulative: zero or more units."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _positive(text: str) -> int:
    """--n and --max of count cocyclic-cumulative: the dimension and the largest index, at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_format(parser) -> None:
    parser.add_argument(
        "--format",
        choices=("json", "plain", "csv"),
        default="json",
        help="output format (default json)",
    )


def _add_cache(parser) -> None:
    parser.add_argument(
        "--cache",
        default=None,
        help=f"JSON coefficient cache file (default from ${CACHE_ENV})",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sublattices",
        description="Count, enumerate, and classify finite-index sublattices of Z^n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="closed-form counts")
    csub = count.add_subparsers(dest="what", required=True)

    p = csub.add_parser("fn", help="number of sublattices of index m in Z^n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--method", choices=("closed", "recursion"), default="closed")
    _add_format(p)
    p.set_defaults(func=_cmd_count_fn)

    p = csub.add_parser("gn", help="number of equivalence classes at index m")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_count_gn)

    p = csub.add_parser("class", help="size of one equivalence class")
    p.add_argument("--divisors", default=None, help="invariant factor chain d1,...,dn")
    p.add_argument("--n", type=int, default=None, help="dimension, for the partition form")
    p.add_argument("--prime", type=int, default=None)
    p.add_argument(
        "--partition", default=None, help="nondecreasing exponents a1,...,aN of the prime"
    )
    _add_cache(p)
    _add_format(p)
    p.set_defaults(func=_cmd_count_class)

    p = csub.add_parser("cocyclic", help="sublattices with cyclic quotient at index m")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_count_cocyclic)

    p = csub.add_parser(
        "cocyclic-cumulative", help="cyclic-quotient sublattices over all indices up to a bound"
    )
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--max", type=_positive, required=True)
    p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET, help="most indices to sieve")
    _add_format(p)
    p.set_defaults(func=_cmd_count_cumulative)

    p = sub.add_parser("enumerate", help="stream Hermite forms as JSON lines")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--with-snf", action="store_true", help="attach the invariant factor chain")
    p.add_argument("--limit", type=int, default=None, help="stop after this many matrices")
    p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_enumerate)

    poly = sub.add_parser("poly", help="answers as polynomials in the prime")
    psub = poly.add_subparsers(dest="what", required=True)

    p = psub.add_parser("class", help="class size for a partition of prime exponents")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--partition", required=True, help="nondecreasing exponents a1,...,aN")
    p.add_argument("--eval", type=int, default=None, help="also evaluate at this integer")
    _add_cache(p)
    _add_format(p)
    p.set_defaults(func=_cmd_poly_class)

    p = psub.add_parser("fn", help="sublattice count of index p^r as a polynomial in p")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--eval", type=int, default=None)
    _add_cache(p)
    _add_format(p)
    p.set_defaults(func=_cmd_poly_fn)

    p = psub.add_parser("cocyclic", help="cyclic-quotient count of index p^r as a polynomial")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--eval", type=int, default=None)
    _add_format(p)
    p.set_defaults(func=_cmd_poly_cocyclic)

    p = psub.add_parser("leading-check", help="compare top coefficients of the two polynomials")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_poly_leading)

    p = sub.add_parser("verify", help="diff formulas against the brute-force oracle")
    p.add_argument("mode", nargs="?", choices=("suite",), help="run the fixed suite")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--prime", type=int, default=None)
    p.add_argument("--max-r", type=int, default=None, dest="max_r")
    p.add_argument(
        "--jobs", type=int, default=1,
        help="accepted and checked (an integer >= 1); the oracle runs in one process",
    )
    p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    _add_format(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, ArithmeticError) as exc:
        print(f"error: internal inconsistency: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
