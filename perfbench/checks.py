"""Output checks shared by the benchmark (``run.py``) and the reference recorder.

Nothing here imports arithex: the checks read the program's rendered
outputs and compare digests of them with ``reference.json``, which
``make_reference.py`` records from a known-good commit.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")

OPS = ("+", "-", "*", "/")
TYPE_ROWS = ("first", "second", "third")
TOTALS_CHECKED = 17


def program_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "arithex", "cli.py"))


def use_program_source() -> None:
    """Import arithex from this checkout's ``src``, never from elsewhere."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def sha16(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def keys_digest(keys) -> str:
    """Digest of a set of class keys, independent of their order."""
    return sha16("\n".join(sorted(keys)))


# -- engine: `count --max-n N` text tables ---------------------------------


def table_levels(text: str) -> dict:
    """Parse the text tables into {n: [12 cells]}, ops major, types minor."""
    lines = text.splitlines()
    levels = {}
    for i, line in enumerate(lines):
        if not line.startswith("n="):
            continue
        n = int(line.split()[0][2:])
        cells = [[0] * 3 for _ in OPS]
        for t, row in enumerate(lines[i + 1 : i + 4]):
            fields = row.split()
            if fields[0] != TYPE_ROWS[t]:
                raise ValueError(f"level {n}: expected a {TYPE_ROWS[t]} row, got {row!r}")
            for k in range(len(OPS)):
                cells[k][t] = int(fields[1 + k])
        levels[n] = [c for per_op in cells for c in per_op]
    return levels


def level_digest(cells: list) -> str:
    return sha16(",".join(map(str, cells)))


def check_engine(stdout: str, ref: dict, max_n: int) -> list:
    """Problems with one `count --max-n max_n` output; empty when correct."""
    try:
        levels = table_levels(stdout)
    except (ValueError, IndexError) as exc:
        return [f"unparsable table: {exc}"]
    problems = []
    if sorted(levels) != list(range(1, max_n + 1)):
        problems.append(f"levels {sorted(levels)[:3]}... instead of 1..{max_n}")
    for n, cells in levels.items():
        if level_digest(cells) != ref["engine_levels"].get(str(n)):
            problems.append(f"level {n} cells differ from the reference")
    totals = [line for line in stdout.splitlines() if line.startswith("totals: ")]
    if len(totals) != 1:
        return problems + ["no single totals line"]
    got = totals[0].split()[1:]
    want = [str(ref["orbit_totals"][str(n)]) for n in range(1, min(max_n, TOTALS_CHECKED) + 1)]
    if got[: len(want)] != want or len(got) != max_n:
        problems.append("totals line differs from the published orbit totals")
    return problems


# -- verify5: `verify --max-n N --seed S` ---------------------------------------


def check_verify(rc: int, stdout: str, ref: dict, max_n: int) -> list:
    problems = [] if rc == 0 else [f"exit code {rc}"]
    if sha16(stdout) != ref["verify_output"].get(str(max_n)):
        problems.append("check lines differ from the reference")
    return problems


# -- solve5: one puzzle -----------------------------------------------------


def check_puzzle(outcome: dict, expected_digest: str) -> list:
    """``outcome`` is what the worker reports for one solved puzzle."""
    problems = []
    if outcome["bad_witnesses"]:
        problems.append(f"{outcome['bad_witnesses']} witnesses miss the target")
    if outcome["classes"] != outcome["solutions"]:
        problems.append("class keys repeat across solutions")
    if outcome["keys"] != expected_digest:
        problems.append("class keys differ from the reference")
    return problems
