"""Benchmark for the sublattices package: one command, named workloads, checked answers.

Usage, from the repository root:

    python3 bench/run.py --workload library --seed 1 --seconds 45 --trace 0

With --trace 0 the run times a fixed number of fresh-process passes of the
workload and reports the end-to-end metrics; with --trace 1 it runs the per-layer
probes, then alternates untraced and traced passes to report tracing overhead and
self time per layer.
The last line of stdout is the JSON result; the line before it holds the details
(machine, exact per-pass operation counts, failures, the tail percentile used).
Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

from common import (
    OUT_DIR,
    ROOT,
    BenchError,
    check_checkout,
    import_package,
    last_json_line,
    machine_info,
    median,
    peak_rss_mb,
    run_child,
    tail,
)
from workloads import WORKLOADS

# Untraced passes per run.  The count is fixed, so that the fastest-run estimators
# below always take the same number of samples, whatever the speed of the code;
# --seconds only caps the run (at no fewer than MIN_PASSES passes).
PASSES = {"library": 5, "cli": 5}
MIN_PASSES = 2
TRACED_PASSES = 2  # of each kind in a traced run
SETUP_PER_PASS = 3  # fresh-interpreter imports before every untraced pass
HARD_LIMIT_S = 170.0  # every run ends within the 180 s a run may take


def metric_units() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")
    }


# ---------------------------------------------------------------- worker side

def worker_main(args) -> int:
    """Runs inside a fresh child: one pass, or the probes, printed as one JSON line."""
    import probes
    import workloads

    pkg = import_package()
    if args.role == "pass":
        out = workloads.run_pass(
            pkg, args.workload, args.seed, args.scale, bool(args.trace)
        )
        spans = out.pop("trace", None)
        if spans is not None:
            OUT_DIR.mkdir(exist_ok=True)
            path = OUT_DIR / f"spans-{args.workload}-{args.seed}-{args.pass_index}.json"
            path.write_text(json.dumps(spans), encoding="utf-8")
            out["spans_file"] = str(path.relative_to(ROOT))
    else:
        out = probes.run_probes(pkg, args.seed, args.scale)
    out["rss_mb"] = peak_rss_mb()
    print(json.dumps(out))
    return 0


# ---------------------------------------------------------------- driver side

class Run:
    def __init__(self, args):
        self.args = args
        self.t_start = perf_counter()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def remaining(self) -> float:
        return HARD_LIMIT_S - (perf_counter() - self.t_start)

    def worker(self, role: str, trace: int = 0, pass_index: int = 0) -> dict:
        a = self.args
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--role", role,
            "--workload", a.workload, "--seed", str(a.seed), "--scale", a.scale,
            "--trace", str(trace), "--pass-index", str(pass_index),
        ]
        code, out, err, _ = run_child(cmd, timeout=self.remaining())
        if code != 0:
            raise RuntimeError(f"{role} worker exited {code}: {err.strip()[-800:]}")
        return last_json_line(out)

    def take_pass(self, trace: int, index: int) -> dict:
        got = self.worker("pass", trace, index)
        for name, _, ok, err, *_ in got["ops"]:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failures.append(f"{name}: {err}")
        return got

    def passes(self, traced: bool) -> tuple[list[dict], list[dict], list[dict]]:
        """The workload's fixed number of untraced (and, traced, alternating traced) passes.

        In an untraced run, SETUP_PER_PASS fresh interpreters time the import
        before each pass, so the set-up samples spread over the whole run like
        the passes do.  The run stops early only when the next pass would
        overrun --seconds (or the hard limit), and never before MIN_PASSES.
        """
        plain, spanned, imports = [], [], []
        want = TRACED_PASSES if traced else PASSES[self.args.workload]
        t0 = perf_counter()
        costs = []
        while len(plain) < want:
            t = perf_counter()
            if not traced:
                imports += [self.time_setup() for _ in range(SETUP_PER_PASS)]
            plain.append(self.take_pass(0, len(plain) + len(spanned)))
            if traced:
                spanned.append(self.take_pass(1, len(plain) + len(spanned)))
            costs.append(perf_counter() - t)
            if len(plain) < MIN_PASSES:
                continue
            if perf_counter() - t0 + median(costs) > self.args.seconds:
                break
            if self.remaining() < 2 * max(costs):
                break
        for p in plain + spanned:
            if p["counts"] != plain[0]["counts"]:
                self.failed += 1
                self.failures.append(f"operation counts differ between passes: {p['counts']}")
        return plain, spanned, imports

    def time_setup(self) -> dict:
        import probes

        return probes.time_import("sublattices.cli" if self.args.workload == "cli" else "sublattices")


def end_to_end(plain: list[dict], imports: list[dict]) -> tuple[dict, dict]:
    """Timing metrics from each operation's fastest run, and the fastest import.

    The host's speed swings by tens of percent within seconds and drifts between
    runs; a median over all runs follows both, while each operation's fastest
    run moves much less.  The pooled tail, which the swings dominate, goes to
    the detail line only.
    """
    per_pass = len(plain[0]["ops"])
    best = [min(p["ops"][i][1] for p in plain) for i in range(per_pass)]
    pooled = [op[1] for p in plain for op in p["ops"]]
    sections: dict[str, float] = {}
    classify_s = forms = 0
    for t, (*_, section, op_forms) in zip(best, plain[0]["ops"]):
        sections[section] = sections.get(section, 0.0) + t
        if op_forms:
            classify_s += t
            forms += op_forms
    tail_s, pct = tail(pooled)
    values = {
        "wall_s": sum(best),
        "setup_s": min(d["import_s"] for d in imports),
        "op_p50_s": median(best),
        "peak_rss_mb": median([p["rss_mb"] for p in plain]),
    }
    extra = {
        "section_wall_s": sections,
        "op_tail_s": tail_s,
        "op_tail_percentile": pct,
        "op_samples": len(pooled),
        "passes": len(plain),
        "setup_samples_s": [d["import_s"] for d in imports],
        "matrices_per_s": forms / classify_s if forms else None,
    }
    return values, extra


def per_layer(run: Run, plain: list[dict], spanned: list[dict]) -> tuple[dict, dict]:
    got = run.worker("probes")
    run.attempted += got["attempted"]
    run.failed += len(got["failures"])
    run.failures += [f"probe {f}" for f in got["failures"]]
    values = dict(got["metrics"])
    untraced = median([p["wall_s"] for p in plain])
    traced = median([p["wall_s"] for p in spanned])
    values["trace.overhead_s"] = traced - untraced
    layers = sorted({k for p in spanned for k in p["self_s"]})
    self_s = {k: median([p["self_s"].get(k, 0.0) for p in spanned]) for k in layers}
    extra = {
        "traced_wall_s": traced,
        "untraced_wall_s": untraced,
        "self_s": self_s,
        "spans_files": [p["spans_file"] for p in spanned],
        "probe_rss_mb": got["rss_mb"],
    }
    return values, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every scope; only for the benchmark's own tests")
    ap.add_argument("--role", choices=("main", "pass", "probes"), default="main",
                    help=argparse.SUPPRESS)
    ap.add_argument("--pass-index", type=int, default=0, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    try:
        check_checkout()
        if args.role != "main":
            return worker_main(args)
        units = metric_units()
        run = Run(args)
        plain, spanned, imports = run.passes(traced=bool(args.trace))
        if args.trace:
            imports = [run.time_setup()]
            values, extra = per_layer(run, plain, spanned)
            kind = "per_layer"
        else:
            values, extra = end_to_end(plain, imports)
            kind = "end_to_end"
    except (BenchError, RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    missing = set(units[kind]) - set(values)
    if missing:
        print(f"error: no value for {sorted(missing)}", file=sys.stderr)
        return 2
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "scale": args.scale,
        "machine": dict(machine_info(), numpy=imports[0]["numpy"]),
        "numpy_loaded_on_import": imports[0]["numpy_loaded"],
        "pass_counts": plain[0]["counts"],
        "pass_walls_s": [p["wall_s"] for p in plain],
        "fail_ratio": run.failed / run.attempted,
        "failures": run.failures[:20],
        "seconds_used": perf_counter() - run.t_start,
        **extra,
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units[kind].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
