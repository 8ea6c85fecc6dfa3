"""Workloads: seeded operation plans, one timed pass, and the answer checks.

A workload is a list of sections, each a seeded plan of operations.  A pass runs
every operation once, timing each, and only then checks each answer against an
independent route, so the checks never warm a cache the timed operations use.
Plans depend only on (section, seed, scale): every pass of a run repeats the
same operations, and the same seed always gives the same plan.  Pools are
chosen so that every draw costs about the same.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import tempfile
from dataclasses import dataclass
from math import prod
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from common import TMP_DIR, Tracer, nproc, run_child

# Pool members were timed interleaved (round-robin, 4 rounds, 2-CPU Xeon) and kept
# where their medians agreed: the host's speed drifts too much for one-shot timings.
# oracle-vector: census_bruteforce + cocyclic_bruteforce at jobs 1 and 2 took
# 0.98-1.08 s at each n = 3 index.  The n = 4 index is fixed: its largest block
# (104^3 forms) fills a whole int64 chunk, so it sets the pass's peak memory
# whichever n = 3 indices the seed draws.
VECTOR_N3 = {"full": (768, 800, 816, 828, 888, 896, 920), "tiny": (24, 30, 36)}
VECTOR_N4 = {"full": 104, "tiny": 12}
# oracle-scan: no two n = 5 indices in reach cost the same, so the n = 5 scopes are
# fixed and the seed draws the n = 3 prime-power indices (2667 and 2850 forms)
SCAN_N5 = {"full": (6, 9), "tiny": (2, 3)}
SCAN_STREAM = {"full": (32, 49), "tiny": (4, 9)}
SCAN_STREAM_OPS = 7
# glue-poly: a fixed cold ladder of sublattice_count_poly rungs from 0.05 s to
# 0.6 s, plus four light class_census calls at n = 4, each over three primes from
# its own group.  The seed picks the primes and which prime carries which
# exponent; that leaves the glue work unchanged but not the integer sizes, so the
# census calls are kept light.
GLUE_LADDER = {
    "full": ((5, 5), (6, 5), (7, 4), (7, 5), (5, 6), (3, 11), (4, 8),
             (6, 6), (5, 7), (4, 9), (3, 13)),
    "tiny": ((3, 2), (4, 2), (5, 2), (3, 3), (4, 3), (5, 3), (6, 3),
             (3, 4), (4, 4), (5, 4), (6, 4)),
}
GLUE_CENSUS_EXPS = {"full": (5, 4, 3), "tiny": (2, 1, 1)}
GLUE_PRIME_GROUPS = ((2, 3, 5, 7), (11, 13, 17, 19), (23, 29, 31, 37), (41, 43, 47, 53))
# cli
CLI_CHAINS = ("2,4,8", "1,6,12", "2,2,12", "1,2,24", "3,3,9", "1,4,16")
CLI_POLY_CLASS = ("0,1,2,3", "1,1,2,2", "0,0,3,3", "0,1,1,4")
CLI_ENUM_M = {"full": (32, 49), "tiny": (4, 6)}
CLI_CACHE_RUNG = {"full": ((4, 9), (3, 14)), "tiny": ((3, 3), (4, 2))}
CLI_CUMULATIVE = {"full": (40_000, 50_000), "tiny": (200, 300)}
# verify at --jobs 1 and --jobs nproc: (3, 120) has 62465 forms, above the oracle's
# 50000-form threshold for forking workers, so the nproc run really fans out
CLI_VERIFY_M = {"full": 120, "tiny": 24}
PRIMES = (2, 3, 5)


@dataclass
class Op:
    """One public call (or CLI invocation), its work, and how to check its answer."""

    name: str
    span: str
    call: Callable[[Tracer | None, int], Any]
    answer: Callable[[Any], Any]
    expect: Callable[[], Any]
    forms: int = 0  # Hermite forms the call classifies
    section: str = ""


# ---------------------------------------------------------------- oracle-vector

def _oracle_ops(pkg, n: int, m: int, jobs_list) -> list[Op]:
    count = pkg.sublattice_count(n, m)
    ops = []
    for jobs in jobs_list:
        ops.append(
            Op(
                f"census_bruteforce n={n} m={m} jobs={jobs}",
                "oracle.census_bruteforce",
                lambda tr, sid, j=jobs: pkg.census_bruteforce(n, m, jobs=j).counts,
                lambda res: res,
                lambda: pkg.class_census(n, m).counts,
                count,
            )
        )
        ops.append(
            Op(
                f"cocyclic_bruteforce n={n} m={m} jobs={jobs}",
                "oracle.cocyclic_bruteforce",
                lambda tr, sid, j=jobs: pkg.cocyclic_bruteforce(n, m, jobs=j),
                lambda res: res,
                lambda: pkg.cocyclic_count(n, m),
                count,
            )
        )
    return ops


def vector_scopes(rng: random.Random, scale: str) -> list[tuple[int, int]]:
    scopes = [(3, m) for m in rng.sample(VECTOR_N3[scale], 2)]
    scopes.append((4, VECTOR_N4[scale]))
    rng.shuffle(scopes)
    return scopes


def plan_oracle_vector(pkg, rng, scale, state) -> list[Op]:
    jobs_list = (1, nproc())
    ops = []
    for n, m in vector_scopes(rng, scale):
        ops += _oracle_ops(pkg, n, m, jobs_list)
    return ops


# ---------------------------------------------------------------- oracle-scan

def _stream_op(pkg, m: int) -> Op:
    """Classify every n = 3 form of a prime-power index by reduction and by the shortcut."""
    (p, r), = pkg.factorize(m)

    def shortcut(h):
        s, t = pkg.hnf3_smith_exponents(h)
        return (p**s, p ** (t - s), p ** (r - t))

    def call(tr, sid):
        tally: dict = {}
        disagree = 0
        if tr is None:
            for h in pkg.hnf_stream(3, m):
                chain = pkg.invariant_factors(h.rows)
                if shortcut(h) != chain:
                    disagree += 1
                tally[chain] = tally.get(chain, 0) + 1
            return tally, disagree
        stream = iter(pkg.hnf_stream(3, m))
        while True:
            s = tr.begin("enumeration.hnf_stream", sid)
            h = next(stream, None)
            tr.finish(s)
            if h is None:
                return tally, disagree
            s = tr.begin("forms.invariant_factors", sid)
            chain = pkg.invariant_factors(h.rows)
            tr.finish(s)
            s = tr.begin("forms.hnf3_smith_exponents", sid)
            short = shortcut(h)
            tr.finish(s)
            if short != chain:
                disagree += 1
            tally[chain] = tally.get(chain, 0) + 1

    return Op(
        f"hnf_stream+invariant_factors+hnf3_smith_exponents n=3 m={m}",
        "bench.classify_stream",
        call,
        lambda res: res,
        lambda: (pkg.class_census(3, m).counts, 0),
        pkg.sublattice_count(3, m),
    )


def plan_oracle_scan(pkg, rng, scale, state) -> list[Op]:
    ops = [op for m in SCAN_N5[scale] for op in _oracle_ops(pkg, 5, m, (1,))]
    ops += [_stream_op(pkg, rng.choice(SCAN_STREAM[scale])) for _ in range(SCAN_STREAM_OPS)]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- glue-poly

def _evaluations(pkg, coeffs) -> list[int]:
    return [pkg.poly_eval(coeffs, p) for p in PRIMES]


def glue_census_indices(rng: random.Random, scale: str) -> list[int]:
    out = []
    for group in GLUE_PRIME_GROUPS:
        primes = rng.sample(group, 3)
        out.append(prod(p**e for p, e in zip(primes, GLUE_CENSUS_EXPS[scale])))
    return out


def plan_glue_poly(pkg, rng, scale, state) -> list[Op]:
    ops = []
    for n, r in GLUE_LADDER[scale]:
        ops.append(
            Op(
                f"sublattice_count_poly n={n} r={r} memo={{}}",
                "polyalg.sublattice_count_poly",
                lambda tr, sid, n=n, r=r: pkg.sublattice_count_poly(n, r, memo={}),
                lambda res: _evaluations(pkg, res),
                lambda n=n, r=r: [pkg.sublattice_count(n, p**r) for p in PRIMES],
            )
        )
    for m in glue_census_indices(rng, scale):
        ops.append(
            Op(
                f"class_census n=4 m={m}",
                "census.class_census",
                lambda tr, sid, m=m: pkg.class_census(4, m),
                lambda res: (res.total(), len(res.counts)),
                lambda m=m: (pkg.sublattice_count(4, m), pkg.class_count(4, m)),
            )
        )
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- cli

def _cli_call(args: list[str], tmp: Path, state: dict, key: str | None = None):
    def call(tr, sid):
        code, out, err, _ = run_child(
            [sys.executable, "-m", "sublattices", *args], timeout=120, cwd=tmp
        )
        if key is not None:
            state[key] = out
        return code, out, err

    return call


def _json_payload(res):
    code, out, err = res[:3]
    if code != 0:
        raise RuntimeError(f"exit {code}: {err.strip()[-300:]}")
    return json.loads(out)["payload"]


def _cli_op(name, args, answer, expect, tmp, state, key=None) -> Op:
    return Op(name, "cli." + args[0], _cli_call(args, tmp, state, key), answer, expect)


def plan_cli(pkg, rng, scale, state) -> list[Op]:
    tmp = state["tmp"]
    jn = nproc()

    def value(res):
        return _json_payload(res)["value"]

    def poly_values(res):
        return _evaluations(pkg, [int(c) for c in _json_payload(res)["coefficients"]])

    def per_prime_power(n, m, f):
        return str(prod(f(n, p**e) for p, e in pkg.factorize(m)))

    def cocyclic_pp(n, q):
        (p, e), = pkg.factorize(q)
        return pkg.cocyclic_count_prime_power(n, p, e)

    def gn_by_enumeration(n, m):
        return str(prod(len(list(pkg.partitions(n, e))) for _, e in pkg.factorize(m)))

    ops = []
    n_fn, m_fn = rng.choice((3, 4, 5)), rng.randrange(10**5, 10**6)
    ops.append(_cli_op(
        "count fn", ["count", "fn", "--n", str(n_fn), "--m", str(m_fn)], value,
        lambda: str(pkg.sublattice_count_recursion(n_fn, m_fn)), tmp, state))
    n_gn, m_gn = rng.choice((3, 4, 5)), rng.randrange(10**5, 10**6)
    ops.append(_cli_op(
        "count gn", ["count", "gn", "--n", str(n_gn), "--m", str(m_gn)], value,
        lambda: gn_by_enumeration(n_gn, m_gn), tmp, state))
    chain = rng.choice(CLI_CHAINS)
    key = tuple(int(d) for d in chain.split(","))
    ops.append(_cli_op(
        "count class", ["count", "class", "--divisors", chain], value,
        lambda: str(pkg.census_bruteforce(3, prod(key)).counts[key]), tmp, state))
    n_cc, m_cc = rng.choice((3, 4)), rng.randrange(10**5, 10**6)
    ops.append(_cli_op(
        "count cocyclic", ["count", "cocyclic", "--n", str(n_cc), "--m", str(m_cc)], value,
        lambda: per_prime_power(n_cc, m_cc, cocyclic_pp), tmp, state))
    limit = rng.randrange(*CLI_CUMULATIVE[scale])
    ops.append(_cli_op(
        "count cocyclic-cumulative",
        ["count", "cocyclic-cumulative", "--n", "3", "--max", str(limit)], value,
        lambda: str(sum(int(per_prime_power(3, m, cocyclic_pp)) for m in range(1, limit + 1))),
        tmp, state))
    part = rng.choice(CLI_POLY_CLASS)
    exps = tuple(int(a) for a in part.split(","))
    ops.append(_cli_op(
        "poly class", ["poly", "class", "--n", "4", "--partition", part], poly_values,
        lambda: [pkg.class_size_prime(exps, p) for p in PRIMES], tmp, state))
    n_pf, r_pf = rng.choice(((3, 5), (4, 4), (5, 3)))
    ops.append(_cli_op(
        "poly fn", ["poly", "fn", "--n", str(n_pf), "--r", str(r_pf)], poly_values,
        lambda: [pkg.sublattice_count(n_pf, p**r_pf) for p in PRIMES], tmp, state))
    n_pc, r_pc = rng.choice((3, 4, 5)), rng.choice((2, 3, 4))
    ops.append(_cli_op(
        "poly cocyclic", ["poly", "cocyclic", "--n", str(n_pc), "--r", str(r_pc)], poly_values,
        lambda: [pkg.cocyclic_count_prime_power(n_pc, p, r_pc) for p in PRIMES], tmp, state))
    n_lc, r_lc = rng.choice(((2, 4), (3, 3), (3, 4), (4, 3)))
    ops.append(_cli_op(
        "poly leading-check", ["poly", "leading-check", "--n", str(n_lc), "--r", str(r_lc)],
        lambda res: _json_payload(res)["match"], lambda: True, tmp, state))

    m_en = rng.choice(CLI_ENUM_M[scale])

    def enum_answer(res):
        code, out, err = res
        if code != 0:
            raise RuntimeError(f"exit {code}: {err.strip()[-300:]}")
        tally: dict = {}
        for line in out.splitlines():
            snf = json.loads(line)["snf"]
            tally[snf] = tally.get(snf, 0) + 1
        return tally

    ops.append(_cli_op(
        "enumerate --with-snf", ["enumerate", "--n", "3", "--m", str(m_en), "--with-snf"],
        enum_answer,
        lambda: {",".join(map(str, k)): v for k, v in pkg.class_census(3, m_en).counts.items()},
        tmp, state))
    ops[-1].forms = pkg.sublattice_count(3, m_en)

    def verify_rows(res):
        payload = _json_payload(res)
        rows = {r["class"]: r["formula"] for s in payload["sections"] for r in s["rows"]}
        return payload["all_match"], rows

    m_ve = CLI_VERIFY_M[scale]

    def verify_expect():
        return True, {",".join(map(str, k)): str(v) for k, v in pkg.class_census(3, m_ve).counts.items()}

    ops.append(_cli_op(
        "verify --jobs 1", ["verify", "--n", "3", "--m", str(m_ve), "--jobs", "1"],
        verify_rows, verify_expect, tmp, state, key="verify_j1"))
    ops.append(_cli_op(
        f"verify --jobs {jn}", ["verify", "--n", "3", "--m", str(m_ve), "--jobs", str(jn)],
        lambda res: (verify_rows(res), res[1] == state.get("verify_j1")),
        lambda: (verify_expect(), True), tmp, state))
    if scale == "full":
        suite_args = ["verify", "suite"]
    else:
        suite_args = ["verify", "--n", "2", "--m", "6"]
    ops.append(_cli_op(
        "verify suite", suite_args, lambda res: _json_payload(res)["all_match"],
        lambda: True, tmp, state))

    n_ca, r_ca = rng.choice(CLI_CACHE_RUNG[scale])
    cache = str(tmp / "coefficients.json")
    cache_args = ["poly", "fn", "--n", str(n_ca), "--r", str(r_ca), "--cache", cache]

    def expected_fn():
        return [pkg.sublattice_count(n_ca, p**r_ca) for p in PRIMES]

    cold = _cli_op(
        "poly fn --cache (cold)", cache_args,
        lambda res: (poly_values(res), res[3]),
        lambda: (expected_fn(), True), tmp, state, key="cache_cold")
    run_cold = cold.call
    cold.call = lambda tr, sid: (*run_cold(tr, sid), Path(cache).is_file())
    ops.append(cold)
    ops.append(_cli_op(
        "poly fn --cache (warm)", cache_args,
        lambda res: (poly_values(res), res[1] == state.get("cache_cold")),
        lambda: (expected_fn(), True), tmp, state))
    return ops


SECTIONS = {
    "oracle-vector": plan_oracle_vector,
    "oracle-scan": plan_oracle_scan,
    "glue-poly": plan_glue_poly,
    "cli": plan_cli,
}
# The host's speed swings for tens of seconds at a time, so each run has to be
# long; to fit the runs in the time a benchmark may take, the three library
# sections share one workload.  Their walls are reported separately.
WORKLOADS = {
    "library": ("oracle-vector", "oracle-scan", "glue-poly"),
    "cli": ("cli",),
}


def plan_rng(section: str, seed: int) -> random.Random:
    return random.Random(f"{section}/{seed}")


def plan(pkg, workload: str, seed: int, scale: str, state: dict) -> list[Op]:
    ops = []
    for section in WORKLOADS[workload]:
        for op in SECTIONS[section](pkg, plan_rng(section, seed), scale, state):
            op.section = section
            ops.append(op)
    return ops


def run_pass(pkg, workload: str, seed: int, scale: str, trace: bool) -> dict:
    """Time every operation of the plan once, then check every answer."""
    TMP_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="pass-", dir=TMP_DIR))
    try:
        state: dict = {"tmp": tmp}
        ops = plan(pkg, workload, seed, scale, state)
        tr = Tracer() if trace else None
        done = []
        t_pass = perf_counter()
        root = tr.begin("bench.pass") if tr else -1
        for op in ops:
            t0 = perf_counter()
            sid = tr.begin(op.span, root) if tr else -1
            try:
                res, err = op.call(tr, sid), None
            except Exception as exc:  # a failing operation is a result, not a crash
                res, err = None, f"{type(exc).__name__}: {exc}"
            finally:
                if tr:
                    tr.finish(sid)
            done.append((perf_counter() - t0, res, err))
        if tr:
            tr.finish(root)
        wall = perf_counter() - t_pass
        rows = []
        for op, (lat, res, err) in zip(ops, done):
            if err is None:
                try:
                    got, want = op.answer(res), op.expect()
                    if got != want:
                        err = "wrong answer"
                except Exception as exc:
                    err = f"check raised {type(exc).__name__}: {exc}"
            rows.append([op.name, lat, err is None, err, op.section, op.forms])
        forms = sum(op.forms for op in ops)
        out = {
            "ops": rows,
            "wall_s": wall,
            "counts": {
                "operations": len(ops),
                "hermite_forms": forms,
                "cli_invocations": sum(op.span.startswith("cli.") for op in ops),
            },
        }
        if tr:
            out["self_s"] = tr.self_seconds()
            out["trace"] = tr.dump()
        return out
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
