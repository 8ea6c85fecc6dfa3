"""Shared helpers: locating the measured checkout, child processes, spans, statistics."""

from __future__ import annotations

import json
import os
import platform
import resource
import signal
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd().resolve()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
TMP_DIR = ROOT / ".bench_tmp"


class BenchError(RuntimeError):
    """The benchmark cannot run in this directory."""


def check_checkout() -> None:
    if not (SRC / "sublattices" / "__init__.py").is_file():
        raise BenchError(f"no src/sublattices package under {ROOT}; run from the repository root")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """Environment for every child: the checkout's src first, no coefficient cache."""
    env = dict(os.environ)
    env.pop("SUBLATTICE_CACHE", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def import_package():
    """Import sublattices from the measured checkout and prove that is where it came from."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sublattices

    where = Path(sublattices.__file__).resolve()
    if SRC not in where.parents:
        raise BenchError(f"imported sublattices from {where}, not from {SRC}")
    return sublattices


def run_child(cmd: list[str], *, timeout: float, cwd: Path = ROOT) -> tuple[int, str, str, float]:
    """Run a command in its own session; kill the whole group on timeout and wait for it.

    Returns (exit code, stdout, stderr, wall seconds); the exit code is -9 on timeout.
    """
    t0 = perf_counter()
    proc = subprocess.Popen(
        cmd,
        cwd=cwd,
        env=child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return -9, out, err + f"\ntimed out after {timeout:.0f}s", perf_counter() - t0
    return proc.returncode, out, err, perf_counter() - t0


def last_json_line(text: str):
    for line in reversed(text.strip().splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no JSON line in output")


def peak_rss_mb() -> float:
    """ru_maxrss of this process plus that of its largest waited-for descendant, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def machine_info() -> dict:
    model, llc = "unknown", "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                key, _, val = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = val.strip()
                elif key == "cache size" and llc == "unknown":
                    llc = val.strip()
    except OSError:
        pass
    return {
        "nproc": nproc(),
        "cpu_model": model,
        "llc": llc,
        "python": platform.python_version(),
    }


def median(values):
    vals = sorted(values)
    if not vals:
        raise ValueError("median of nothing")
    mid = len(vals) // 2
    return vals[mid] if len(vals) % 2 else (vals[mid - 1] + vals[mid]) / 2


def tail(values) -> tuple[float, float]:
    """(value, percentile) at the highest percentile that has ten samples above it."""
    vals = sorted(values)
    if len(vals) < 11:
        raise ValueError(f"need at least 11 samples for the tail, got {len(vals)}")
    return vals[-11], 100.0 * (len(vals) - 10) / len(vals)


class Tracer:
    """Spans kept in flat arrays: name, parent, start, end.  Written out once, at the end."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")

    def begin(self, name: str, parent: int = -1) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(nid)
        self.parent.append(parent)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return len(self.start) - 1

    def finish(self, sid: int) -> None:
        self.end[sid] = perf_counter()

    def self_seconds(self) -> dict[str, float]:
        """Per layer (the span name up to its first dot): span time not covered by children."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, par in enumerate(self.parent):
            if par >= 0:
                own[par] -= dur[i]
        out: dict[str, float] = {}
        for i, nid in enumerate(self.name):
            layer = self.names[nid].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + own[i]
        return out

    def dump(self) -> dict:
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
        }
