"""Stdout bytes and exit codes of pinned CLI commands, against tests/data/stdout_pins.json.

Each command runs through cli.main in this process, with SUBLATTICE_CACHE
unset, and its whole stdout must have the pinned sha256.  A change that moves
stdout on purpose regenerates the pins from the current tree with

    PYTHONPATH=src python tests/test_stdout_pins.py --write

and names each command whose digest changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
from pathlib import Path

import pytest

PINS = Path(__file__).with_name("data") / "stdout_pins.json"

COMMANDS = [
    # every format of each subcommand's answer
    "count fn --n 3 --m 36 --format json",
    "count fn --n 3 --m 36 --format plain",
    "count fn --n 3 --m 36 --format csv",
    "count fn --n 3 --m 36 --method recursion --format csv",
    "count gn --n 4 --m 720 --format csv",
    "count class --divisors 2,4,8 --format csv",
    "count class --n 3 --prime 2 --partition 0,1,2 --format plain",
    "count cocyclic --n 3 --m 120 --format csv",
    "count cocyclic-cumulative --n 3 --max 100 --format csv",
    "poly class --n 4 --partition 0,1,2,3",
    "poly class --n 4 --partition 0,1,2,3 --format csv",
    "poly class --n 4 --partition 0,1,2,3 --eval 3 --format json",
    "poly class --n 4 --partition 0,1,2,3 --eval 3 --format plain",
    "poly class --n 4 --partition 0,1,2,3 --eval 3 --format csv",
    "poly fn --n 3 --r 5 --format csv --eval 2",
    "poly cocyclic --n 3 --r 2 --format csv",
    "poly leading-check --n 3 --r 4 --format json",
    "poly leading-check --n 3 --r 4 --format plain",
    "poly leading-check --n 3 --r 4 --format csv",
    "poly fn --n 2 --r 2 --eval 2 --format csv",
    "poly fn --n 2 --r 2 --eval 2 --format plain",
    "poly leading-check --n 2 --r 2 --format plain",
    "poly leading-check --n 2 --r 2 --format csv",
    # verify reports, and their identity across --jobs
    "verify --n 3 --m 64 --format json",
    "verify --n 3 --m 64 --format plain",
    "verify --n 3 --m 64 --format csv",
    "verify --n 2 --prime 3 --max-r 3 --format json",
    "verify --n 2 --prime 3 --max-r 3 --format csv",
    "verify --n 2 --prime 2 --max-r 2 --format plain",
    "verify suite --format json",
    "verify suite --format plain",
    "verify suite --format csv",
    "verify suite --jobs 1",
    "verify suite --jobs 8",
    "verify --n 2 --m 199999",
    "verify --n 3 --m 433",
    "verify --n 2 --m 200003",
    "verify --n 3 --m 120 --jobs 8",
    # Hermite streams
    "enumerate --n 2 --m 4 --with-snf",
    "enumerate --n 3 --m 12 --with-snf",
    "enumerate --n 2 --m 8",
    "enumerate --n 2 --m 4 --limit 0 --budget 0",
    "enumerate --n 1 --m 6",
    "enumerate --n 2 --m 6",
    "enumerate --n 3 --m 6",
    "enumerate --n 4 --m 6",
    # exit 3: one refusal per unit of work
    "enumerate --n 3 --m 1000 --budget 10",
    "count cocyclic-cumulative --n 3 --max 1000 --budget 999",
    "count fn --n 30 --m 3656158440062976 --method recursion",
    "verify --n 4 --m 2097152 --budget 1000000000000000000000000000000",
    "verify --n 8 --m 18446744073709551616",
    "verify suite --budget 50",
    "verify --n 2 --prime 2 --max-r 30 --budget 1000",
    # exit 2: invalid input, one case per subcommand
    "count fn --n 0 --m 5 --format csv",
    "count fn --n 0 --m 5",
    "count gn --n 3 --m 0",
    "count class --divisors 2,3",
    "count cocyclic --n 0 --m 4",
    "count cocyclic-cumulative --n 0 --max 5",
    "count cocyclic-cumulative --n 0 --max 1000000000",
    "enumerate --n 2 --m 4 --limit -1",
    "poly class --n 2 --partition 1,0",
    "poly fn --n 0 --r 2",
    "poly cocyclic --n 2 --r -1",
    "poly leading-check --n 0 --r 2",
    "verify --n 2 --m 0",
]


def run(command: str) -> tuple[str, int]:
    """(sha256 of stdout, exit code) of one command through cli.main."""
    from sublattices.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(shlex.split(command))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(), code


def load_pins() -> dict:
    return {p["command"]: p for p in json.loads(PINS.read_text(encoding="utf-8"))["pins"]}


def test_pins_cover_every_command():
    assert list(load_pins()) == COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_stdout_pinned(command, monkeypatch):
    monkeypatch.delenv("SUBLATTICE_CACHE", raising=False)
    pin = load_pins()[command]
    assert run(command) == (pin["sha256"], pin["exit"])


def write() -> None:
    os.environ.pop("SUBLATTICE_CACHE", None)
    pins = []
    for command in COMMANDS:
        digest, code = run(command)
        pins.append({"command": command, "sha256": digest, "exit": code})
    PINS.parent.mkdir(exist_ok=True)
    PINS.write_text(json.dumps({"pins": pins}, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_stdout_pins.py --write")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    write()
