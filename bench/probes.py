"""Per-layer probes for the traced run: each one times calls into one module's public API.

Probes run in one fresh process, in a fixed order, so cold caches are cold: the
class_census probe runs first, before anything fills the class-size memo, and
every polynomial call gets a fresh memo.  Scopes are fixed, or drawn from the
workload pools by the seed.  At scale "tiny" the same metric names carry much
smaller scopes; those numbers only exercise the harness.
"""

from __future__ import annotations

import importlib
import json
import shutil
import sys
import tempfile
from math import comb, prod
from pathlib import Path
from time import perf_counter

import workloads as wl
from common import SRC, TMP_DIR, median, nproc, run_child

VECTOR_MIN = 256  # the oracle's smallest block for the int64 path (n <= 4)
PROBE_RUNGS = {"full": ((4, 9), (5, 7), (6, 6)), "tiny": ((4, 3), (5, 2), (6, 2))}
RUNG_NAMES = tuple(f"polyalg.fn_{n}_{r}_s" for n, r in PROBE_RUNGS["full"])
SCOPES = {
    "full": {"compositions": (5, 2**4 * 3**3 * 5**2 * 7), "hnf": (3, 168), "forms": 81,
             "forms2": 2**12, "scan": 9, "enumerate": 81},
    "tiny": {"compositions": (3, 2**3 * 3), "hnf": (3, 12), "forms": 9,
             "forms2": 2**4, "scan": 2, "enumerate": 9},
}
IMPORT_SNIPPET = """\
import json, sys, time
t = time.perf_counter()
import {module} as mod
dt = time.perf_counter() - t
numpy_loaded = "numpy" in sys.modules
import numpy
print(json.dumps({{"import_s": dt, "file": mod.__file__, "numpy_loaded": numpy_loaded,
                  "numpy": numpy.__version__}}))
"""


def time_import(module: str) -> dict:
    """Import one module in a fresh interpreter; fail unless it came from the checkout."""
    code, out, err, _ = run_child(
        [sys.executable, "-c", IMPORT_SNIPPET.format(module=module)], timeout=60
    )
    if code != 0:
        raise RuntimeError(f"import {module} failed: {err.strip()[-300:]}")
    got = json.loads(out)
    if SRC not in Path(got["file"]).resolve().parents:
        raise RuntimeError(f"{module} imported from {got['file']}, not from {SRC}")
    return got


class Probe:
    def __init__(self):
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def timed(fn, *args, **kwargs):
    t0 = perf_counter()
    out = fn(*args, **kwargs)
    return out, perf_counter() - t0


def glue_cells(rungs) -> tuple[int, float]:
    """Box cells the program's admissible_glue calls scan, and the time spent in them.

    Wraps polyalg.admissible_glue, the name the polynomial recursion calls, for one
    extra cold sublattice_count_poly per rung.  Each call scans the box
    prod [0, inner[i]], so it adds prod(inner[i] + 1) cells.
    """
    polyalg = importlib.import_module("sublattices.polyalg")
    real = polyalg.admissible_glue
    cells = 0
    busy = 0.0

    def counting(pivot, target, inner):
        nonlocal cells, busy
        cells += prod(b + 1 for b in inner)
        t0 = perf_counter()
        try:
            return real(pivot, target, inner)
        finally:
            busy += perf_counter() - t0

    polyalg.admissible_glue = counting
    try:
        for n, r in rungs:
            polyalg.sublattice_count_poly(n, r, memo={})
    finally:
        polyalg.admissible_glue = real
    return cells, busy


def vector_share(pkg, scopes) -> float:
    """Predicted share of matrices in blocks the int64 path takes (n <= 4, size >= 256)."""
    total = vec = 0
    for n, m in scopes:
        for diag in pkg.divisor_compositions(m, n):
            block = prod(diag[j] for i in range(n) for j in range(i + 1, n))
            total += block
            if n <= 4 and block >= VECTOR_MIN:
                vec += block
    return vec / total


def per_matrix_us(fn, items) -> tuple[list, float]:
    t0 = perf_counter()
    out = [fn(x) for x in items]
    return out, 1e6 * (perf_counter() - t0) / len(items)


def run_probes(pkg, seed: int, scale: str) -> dict:
    probe = Probe()
    met = probe.metrics
    sc = SCOPES[scale]

    # census: a cold class_census first, while the class-size memo is empty
    m_cc = wl.glue_census_indices(wl.plan_rng("glue-poly", seed), scale)[0]
    table, met["census.class_census_s"] = timed(pkg.class_census, 4, m_cc)
    probe.check("class_census total", table.total() == pkg.sublattice_count(4, m_cc))

    # polyalg: cold ladder rungs, then once more with admissible_glue counted
    rungs = PROBE_RUNGS[scale]
    for name, (n, r) in zip(RUNG_NAMES, rungs):
        coeffs, met[name] = timed(pkg.sublattice_count_poly, n, r, memo={})
        probe.check(name, [pkg.poly_eval(coeffs, p) for p in wl.PRIMES]
                 == [pkg.sublattice_count(n, p**r) for p in wl.PRIMES])
    cells, busy = glue_cells(rungs)
    met["census.glue_cells"] = cells
    met["census.glue_cells_per_s"] = cells / busy if busy else 0.0

    # arith: factorize every index up to the cli workload's cumulative bound
    limit = wl.plan_rng("cli", seed).randrange(*wl.CLI_CUMULATIVE[scale])
    facs, met["arith.factorize_s"] = timed(lambda: [pkg.factorize(m) for m in range(1, limit + 1)])
    probe.check("factorize", all(prod(p**e for p, e in f) == m for m, f in enumerate(facs, 1)))
    n_c, m_c = sc["compositions"]
    comps, t = timed(lambda: sum(1 for _ in pkg.divisor_compositions(m_c, n_c)))
    met["arith.compositions_per_s"] = comps / t
    probe.check("compositions", comps == prod(comb(e + n_c - 1, n_c - 1) for _, e in pkg.factorize(m_c)))
    _, met["census.cocyclic_upto_s"] = timed(pkg.cocyclic_count_upto, 3, limit)

    # enumeration and forms
    n_h, m_h = sc["hnf"]
    count, t = timed(pkg.hnf_stream_count, n_h, m_h)
    met["enumeration.hnf_per_s"] = count / t
    probe.check("hnf_stream count", count == pkg.sublattice_count(n_h, m_h))
    (p3, r3), = pkg.factorize(sc["forms"])
    sample = list(pkg.hnf_stream(3, sc["forms"]))
    rows = [h.rows for h in sample]
    red, met["forms.reduction_us"] = per_matrix_us(pkg.invariant_factors, rows)
    mins, met["forms.minors_us"] = per_matrix_us(pkg.invariant_factors_via_minors, rows)
    _, met["forms.minor_gcd_us"] = per_matrix_us(lambda a: pkg.minor_gcd(a, 2), rows)
    short, met["forms.shortcut3_us"] = per_matrix_us(pkg.hnf3_smith_exponents, sample)
    probe.check("reduction vs minors", red == mins)
    probe.check("shortcut3 vs reduction",
             [(p3**s, p3 ** (t - s), p3 ** (r3 - t)) for s, t in short] == red)
    (p2, r2), = pkg.factorize(sc["forms2"])
    sample2 = list(pkg.hnf_stream(2, sc["forms2"]))
    short2, met["forms.shortcut2_us"] = per_matrix_us(pkg.hnf2_smith_exponent, sample2)
    probe.check("shortcut2 vs reduction",
             [(p2**t, p2 ** (r2 - t)) for t in short2] == [pkg.invariant_factors(h.rows) for h in sample2])

    # oracle: the int64 path at jobs 1 and jobs nproc, alternating, and the scalar scan
    vrng = wl.plan_rng("oracle-vector", seed)
    m_v = vrng.choice(wl.VECTOR_N3[scale])
    expected = pkg.class_census(3, m_v).counts
    t1, tn = [], []
    for _ in range(3):
        for jobs, bucket in ((1, t1), (nproc(), tn)):
            got, t = timed(pkg.census_bruteforce, 3, m_v, jobs=jobs)
            bucket.append(t)
            probe.check(f"census_bruteforce jobs={jobs}", got.counts == expected)
    met["oracle.vector_matrices_per_s"] = pkg.sublattice_count(3, m_v) / median(t1)
    met["oracle.fanout_speedup"] = median(t1) / median(tn)
    met["oracle.vector_share_predicted"] = vector_share(
        pkg,
        wl.vector_scopes(wl.plan_rng("oracle-vector", seed), scale)
    )
    m_s = sc["scan"]
    got, t = timed(pkg.census_bruteforce, 5, m_s)
    met["oracle.scan_matrices_per_s"] = pkg.sublattice_count(5, m_s) / t
    probe.check("census_bruteforce n=5", got.counts == pkg.class_census(5, m_s).counts)
    got, t = timed(pkg.cocyclic_bruteforce, 5, m_s)
    met["oracle.cocyclic_matrices_per_s"] = pkg.sublattice_count(5, m_s) / t
    probe.check("cocyclic_bruteforce n=5", got == pkg.cocyclic_count(5, m_s))
    if scale == "full":
        report, met["oracle.verify_suite_s"] = timed(pkg.verify_suite, jobs=1)
        probe.check("verify_suite", report.all_match)
    else:
        section, met["oracle.verify_suite_s"] = timed(pkg.verify_index, 2, 6)
        probe.check("verify_index", section.ok)

    cli_probes(pkg, probe, seed, scale)
    return {"metrics": met, "attempted": probe.attempted, "failures": probe.failures}


def cli_probes(pkg, probe: Probe, seed: int, scale: str) -> None:
    met = probe.metrics
    imports = [time_import("sublattices.cli") for _ in range(5)]
    met["cli.import_s"] = median([d["import_s"] for d in imports])
    met["cli.numpy_loaded"] = int(imports[0]["numpy_loaded"])

    cli = [sys.executable, "-m", "sublattices"]
    bare, full = [], []
    for _ in range(5):
        bare.append(run_child([sys.executable, "-c", "pass"], timeout=60)[3])
        code, out, _, t = run_child(cli + ["count", "fn", "--n", "3", "--m", "4"], timeout=60)
        full.append(t)
        probe.check("count fn", code == 0 and json.loads(out)["payload"]["value"] == "35")
    met["cli.startup_s"] = median(full) - median(bare)

    TMP_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="probe-", dir=TMP_DIR))
    try:
        n, r = wl.plan_rng("cli", seed).choice(wl.CLI_CACHE_RUNG[scale])
        expected = [str(c) for c in pkg.sublattice_count_poly(n, r, memo={})]
        cold, warm = [], []
        for rep in range(2):
            cache = tmp / f"cache-{rep}.json"
            args = cli + ["poly", "fn", "--n", str(n), "--r", str(r), "--cache", str(cache)]
            for bucket in (cold, warm):
                code, out, _, t = run_child(args, timeout=120, cwd=tmp)
                bucket.append(t)
                probe.check("poly fn --cache",
                         code == 0 and json.loads(out)["payload"]["coefficients"] == expected)
        met["cli.cache_cold_s"] = median(cold)
        met["cli.cache_warm_s"] = median(warm)
        met["cli.cache_bytes"] = cache.stat().st_size

        m_e = SCOPES[scale]["enumerate"]
        code, out, _, t = run_child(
            cli + ["enumerate", "--n", "3", "--m", str(m_e), "--with-snf"], timeout=120, cwd=tmp
        )
        lines = out.count("\n")
        met["cli.enumerate_lines_per_s"] = lines / t
        probe.check("enumerate lines", code == 0 and lines == pkg.sublattice_count(3, m_e))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
