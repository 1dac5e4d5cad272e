"""The arithex benchmark: end-to-end metrics, or per-layer metrics traced.

    python3 perfbench/run.py --workload engine --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Workloads (``README.md`` says why each was chosen and what it predicts):

  engine   ``count --max-n 30`` through ``cli.main``; each table in a fresh
           worker process, so no program cache carries over between tables
  verify5  ``verify --max-n 5 --seed <seed>`` through ``cli.main``; each call
           in a fresh worker process
  solve5   one long-lived worker builds the n = 5 family, then answers
           seeded 5-number puzzles with ``solver.solve``, one in eight of
           them projective

The load is one client in a closed loop: the next operation starts only
when the previous one has finished.  With ``--trace 0`` the run measures
for ``--seconds`` and reports the end-to-end metrics; with ``--trace 1`` it
does a fixed amount of work in alternating untraced and traced pairs, and
reports the per-layer metrics plus the tracing overhead.  ``--workload
all`` does both for every workload.  Every output is checked against ``reference.json``
outside the timed spans; an operation that fails its check counts in
``failed`` and makes the run incorrect; an operation that completes
gives a latency sample either way.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it show every metric with its unit and sample count.
Results and spans are written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time

import checks
from tracer import LAYER_METRICS

WORKLOADS = ("engine", "verify5", "solve5")
ENGINE_MAX_N = 30
VERIFY_MAX_N = 5
SOLVE_BUILDS = 3          # set-up repeats; setup_s uses the median build
BLOCK = 8                 # 1 projective puzzle and 7 finite ones
SOLVE_PROJECTIVE = 2      # projective puzzles per solve5 run, one per stratum
CLI_TRACE_PAIRS = 4       # untraced/traced operation pairs in a traced run
RUN_LIMIT_S = 170         # a run, workers included, must end within 180 s
OUT_DIR = os.path.join(checks.ROOT, ".perfbench")
WORKER = os.path.join(checks.BENCH_DIR, "worker.py")

# The metrics BENCHMARK.json gates on.  On the 2-vCPU Xeon this was tuned
# on, CPU speed swings up to 1.9x in phases of seconds to minutes, longer
# than a run may last, so wall-clock times of whole runs spread more than
# any allowed bound.  An operation's cost is therefore also given in "ref":
# its time divided by that of a fixed reference workload, sampled in the
# same process while the operation runs (worker.SpeedSampler).  Wall-clock
# latencies and throughput are printed next to it, not gated (README.md,
# "Run-to-run spread").
END_TO_END = [
    ("setup_s", "s"),
    ("op_cost_p50", "ref"),
    ("op_cost_mean", "ref"),
    ("peak_rss_mb", "MB"),
]
PRINTED_ONLY = [("op_p50_ms", "ms"), ("op_p90_ms", "ms"), ("ops_per_s", "1/s")]
TRACE_METRICS = [
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.pairs", "count"),
    ("trace.spans", "count"),
]
# the names the metrics go by for each workload, with a unit scale
ALIASES = {
    "engine": {
        "op_p50_ms": ("table_p50_ms", "ms", 1),
        "ops_per_s": ("tables_per_s", "1/s", 1),
        "op_cost_p50": ("table_cost_p50", "ref", 1),
    },
    "verify5": {"op_p50_ms": ("verify_p50_s", "s", 1e-3), "op_cost_p50": ("verify_cost_p50", "ref", 1)},
    "solve5": {
        "op_p50_ms": ("solve_p50_ms", "ms", 1),
        "op_p90_ms": ("solve_p90_ms", "ms", 1),
        "ops_per_s": ("puzzles_per_s", "1/s", 1),
        "op_cost_p50": ("solve_cost_p50", "ref", 1),
    },
}


class Tally:
    """Operations attempted and failed, with the first few problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def record(self, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(problems[0])
            print(f"check failed: {'; '.join(problems)[:300]}", file=sys.stderr)


# -- workers ------------------------------------------------------------------


def call_worker(request: dict, deadline: float) -> tuple:
    """Run one worker; returns (result, start-up plus import seconds)."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER],
            input=json.dumps(request),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - spawned),
            cwd=checks.ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"error": "worker timed out"}, None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exited {proc.returncode}: {proc.stderr[-500:]}"}, None
    result = json.loads(lines[-1])
    return result, result["imported"] - spawned


def cli_request(workload: str, seed: int, size: dict) -> tuple:
    """argv of one operation and the check of its result."""
    ref = checks.load_reference()
    if workload == "engine":
        n = size.get("engine_max_n", ENGINE_MAX_N)
        argv = ["count", "--max-n", str(n)]

        def check(result):
            return ([] if result["rc"] == 0 else [f"exit code {result['rc']}"]) + checks.check_engine(
                result["stdout"], ref, n
            )

    else:
        n = size.get("verify_max_n", VERIFY_MAX_N)
        argv = ["verify", "--max-n", str(n), "--seed", str(seed)]

        def check(result):
            return checks.check_verify(result["rc"], result["stdout"], ref, n)

    return argv, check


def worker_error(result: dict) -> list:
    return [result["error"].strip().splitlines()[-1]] if "error" in result else []


def checked(result: dict, check) -> list:
    return worker_error(result) or check(result)


def puzzle_stream(seed: int) -> list:
    """Seeded puzzles from the recorded pool, in blocks of 1 projective + 7 finite.

    Both pools are cut into strata by hit forms (how many forms reach the
    target): the finite pool into 7, and each block takes one puzzle from
    every stratum; the projective pool into 2, which alternate from block to
    block.  So the mix of cheap and expensive puzzles is the same in every
    run.  No puzzle repeats within a run.
    """
    pool = checks.load_reference()["pool"]
    rng = random.Random(seed)
    finite = _strata(pool["finite"], BLOCK - 1, rng)
    projective = _strata(pool["projective"], 2, rng)
    stream = []
    for b in range(len(finite[0])):
        stream += [projective[b % 2][b // 2]] + [stratum[b] for stratum in finite]
    return stream


def _strata(puzzles: list, count: int, rng: random.Random) -> list:
    ordered = sorted(puzzles, key=lambda p: (p[2], p[0], p[1]))
    size = len(ordered) // count
    strata = [ordered[k * size : (k + 1) * size] for k in range(count)]
    for stratum in strata:
        rng.shuffle(stratum)
    return strata


def is_projective(puzzle: list) -> bool:
    return puzzle[1] == "inf"


def solve_run_puzzles(seed: int) -> list:
    """A solve5 run's puzzles: the projective ones of the first two blocks,
    one from each stratum, then the finite ones in stream order.  The run
    always solves those two and one block's finite puzzles, then as many
    more finite ones as fit; ``mix_mean`` weighs the two kinds back to one
    projective puzzle in ``BLOCK``."""
    stream = puzzle_stream(seed)
    projective = [p for p in stream[: SOLVE_PROJECTIVE * BLOCK] if is_projective(p)]
    return projective + [p for p in stream if not is_projective(p)]


def program_puzzles(puzzles: list) -> list:
    return [[p[0], p[1]] for p in puzzles]  # the program sees only the puzzle


def check_puzzles(result: dict, puzzles: list, tally: Tally) -> None:
    if worker_error(result):
        tally.record(worker_error(result))
        return
    for outcome, puzzle in zip(result["outcomes"], puzzles):
        tally.record(checks.check_puzzle(outcome, puzzle[4]))


# -- end-to-end measurement ----------------------------------------------------


def nearest_rank(ordered: list, q: float) -> float:
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure(workload: str, seed: int, seconds: float, size: dict = None) -> dict:
    """Closed-loop run of one workload for about ``seconds``; end-to-end figures.

    No operation starts that would, judged by the last one, end past
    ``seconds``; at least one operation runs (for solve5, the two projective
    puzzles and one block's finite ones).  ``size`` shrinks the work for the
    benchmark's own tests: engine_max_n, verify_max_n, puzzles (how many)
    and builds.
    """
    size = size or {}
    deadline = time.monotonic() + RUN_LIMIT_S
    tally, setups, latencies, refs, projective, rss = Tally(), [], [], [], [], []
    if workload == "solve5":
        puzzles = solve_run_puzzles(seed)[: size.get("puzzles")]
        request = {
            "mode": "solve",
            "puzzles": program_puzzles(puzzles),
            "builds": size.get("builds", SOLVE_BUILDS),
            "build_before": [0, SOLVE_PROJECTIVE],
            "at_least": SOLVE_PROJECTIVE + BLOCK - 1,
            "seconds": seconds,
        }
        result, imported = call_worker(request, deadline)
        check_puzzles(result, puzzles, tally)
        if "builds_s" in result:
            latencies, refs = result["latencies_s"], result["refs_s"]
            projective = [is_projective(p) for p in puzzles[: len(latencies)]]
            setups = [imported + build for build in result["builds_s"]]
            rss.append(result["maxrss_kb"])
    else:
        argv, check = cli_request(workload, seed, size)
        began, op_s = time.monotonic(), 0.0
        while tally.attempted == 0 or time.monotonic() + op_s - began <= seconds:
            if time.monotonic() >= deadline:
                break
            spawned = time.monotonic()
            result, setup = call_worker({"mode": "cli", "argv": argv, "sample": True}, deadline)
            op_s = time.monotonic() - spawned
            tally.record(checked(result, check))
            if "elapsed_s" in result:
                latencies.append(result["elapsed_s"])
                refs.append(result["ref_s"])
                projective.append(False)
                setups.append(setup)
                rss.append(result["maxrss_kb"])
    return {
        "tally": tally, "setups_s": setups, "latencies_s": latencies, "refs_s": refs,
        "projective": projective, "maxrss_kb": rss,
    }


def mix_mean(values: list, projective: list) -> float:
    """Mean per operation over the workload's mix, one projective puzzle in
    ``BLOCK`` for solve5, whatever share of the run's puzzles was projective."""
    finite = [v for v, p in zip(values, projective) if not p]
    other = [v for v, p in zip(values, projective) if p]
    if not finite or not other:
        return statistics.fmean(values)
    return ((BLOCK - 1) * statistics.fmean(finite) + statistics.fmean(other)) / BLOCK


def costs(run: dict) -> list:
    """Each operation's time in units of the reference time while it ran."""
    return [lat / ref for lat, ref in zip(run["latencies_s"], run["refs_s"])]


def end_to_end(run: dict) -> dict:
    lat = sorted(run["latencies_s"])
    cost = costs(run)
    values = {
        "setup_s": statistics.median(run["setups_s"]),
        "op_cost_p50": statistics.median(cost),
        "op_cost_mean": mix_mean(cost, run["projective"]),
        "peak_rss_mb": max(run["maxrss_kb"]) / 1024,
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": nearest_rank(lat, 0.9) * 1e3,
        "ops_per_s": 1 / mix_mean(run["latencies_s"], run["projective"]),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END + PRINTED_ONLY}


def sample_counts(run: dict) -> dict:
    lat = sorted(run["latencies_s"])
    return {
        "setups": len(run["setups_s"]),
        "operations": len(lat),
        "projective": sum(run["projective"]),
        "beyond_p90": sum(1 for x in lat if x > nearest_rank(lat, 0.9)),
        "processes": len(run["maxrss_kb"]),
    }


# -- traced run ------------------------------------------------------------------


def trace(workload: str, seed: int, size: dict = None) -> dict:
    """Fixed work done untraced and traced in alternating pairs; per-layer
    figures from the traced halves, and the tracing overhead.

    engine and verify5: ``CLI_TRACE_PAIRS`` pairs of operations, each in its
    own worker; the layer figures come from the first traced one.  solve5:
    one family build and the first block of the seed's stream (1 projective
    and 7 finite puzzles), each step done both ways in one worker.  The
    overhead ratio is the median over the pairs of traced ÷ untraced time;
    the halves of a pair run back to back, so they share the machine's
    speed more than any two runs do.  ``size`` is as for ``measure``.
    """
    size = size or {}
    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.bin")
    tally, untraced, traced = Tally(), [], []
    if workload == "solve5":
        puzzles = puzzle_stream(seed)[: size.get("puzzles", BLOCK)]
        request = {"mode": "solve_pairs", "puzzles": program_puzzles(puzzles), "spans": spans}
        result, _ = call_worker(request, deadline)
        check_puzzles(result, [p for p in puzzles for _ in (0, 1)], tally)
        untraced, traced = result.get("untraced_s", []), result.get("traced_s", [])
        layered = result
    else:
        argv, check = cli_request(workload, seed, size)
        layered = {}
        for k in range(CLI_TRACE_PAIRS):
            for with_tracing in (k % 2 == 1, k % 2 == 0):
                request = {"mode": "cli", "argv": argv}
                if with_tracing and not layered:
                    request["spans"] = spans
                result, _ = call_worker(request, deadline)
                tally.record(checked(result, check))
                (traced if with_tracing else untraced).append(result.get("elapsed_s", math.nan))
                if "layers" in result and not layered:
                    layered = result
    metrics = layered.get("layers") or {name: {"value": 0, "unit": unit} for name, unit in LAYER_METRICS}
    ratios = [t / u for t, u in zip(traced, untraced) if t > 0 and u > 0]
    extra = {
        "trace.untraced_s": sum(untraced),
        "trace.traced_s": sum(traced),
        "trace.overhead_s": sum(traced) - sum(untraced),
        "trace.overhead_ratio": statistics.median(ratios) - 1 if ratios else 0.0,
        "trace.pairs": len(ratios),
        "trace.spans": layered.get("spans", 0),
    }
    for name, unit in TRACE_METRICS:
        metrics[name] = {"value": extra[name], "unit": unit}
    return {"tally": tally, "metrics": metrics}


# -- provenance and reporting ------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout; git may not look above it for a repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(checks.ROOT))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=checks.ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (no git)"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    """Read-only facts about the run; nothing on the machine is changed."""
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_at_start": list(os.getloadavg()),
        "seed": seed,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def print_end_to_end(workload: str, metrics: dict, counts: dict, tally: Tally) -> None:
    aliases = ALIASES[workload]
    for name, unit in END_TO_END + PRINTED_ONLY:
        value = metrics[name]["value"]
        shown, shown_unit, scale = aliases.get(name, (name, unit, 1))
        if name == "setup_s":
            note = f"n={counts['setups']} set-ups"
        elif name == "peak_rss_mb":
            note = f"max over {counts['processes']} processes"
        else:
            note = f"n={counts['operations']}"
            if counts["projective"]:
                note += f" ({counts['projective']} projective)"
        if name in ("op_cost_mean", "ops_per_s") and counts["projective"]:
            note += f", weighed to 1 projective in {BLOCK}"
        if name == "op_p90_ms":
            note += f", {counts['beyond_p90']} beyond"
        label = shown if shown == name else f"{shown} ({name})"
        if (name, unit) in PRINTED_ONLY:
            note += ", printed only"
        print(f"{workload:8} {label:30} {value * scale:14.6g} {shown_unit:5} {note}")
    frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"{workload:8} {'failed_frac':30} {frac:14.6g} {'ratio':5} {tally.failed}/{tally.attempted}")


def print_layers(workload: str, metrics: dict) -> None:
    for name, entry in metrics.items():
        print(f"{workload:8} {name:40} {entry['value']:14.6g} {entry['unit']}")


def save(name: str, record: dict) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)


def run_one(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    if traced:
        out = trace(workload, seed)
        tally = out["tally"]
        print_layers(workload, out["metrics"])
        record = {"metrics": out["metrics"]}
    else:
        run = measure(workload, seed, seconds)
        tally = run["tally"]
        if not run["latencies_s"]:
            raise SystemExit(f"{workload}: no operation completed: {tally.problems}")
        values, counts = end_to_end(run), sample_counts(run)
        print_end_to_end(workload, values, counts, tally)
        record = {
            "metrics": {name: values[name] for name, _ in END_TO_END},
            "printed_only": {name: values[name] for name, _ in PRINTED_ONLY},
            "samples": counts,
            **{k: run[k] for k in ("setups_s", "latencies_s", "refs_s", "projective")},
        }
    record.update(
        workload=workload, trace=int(traced), correct=tally.failed == 0,
        attempted=tally.attempted, failed=tally.failed, problems=tally.problems,
    )
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not checks.program_present() or not os.path.isfile(checks.REFERENCE_PATH):
        print(f"error: no arithex sources under {checks.SRC}", file=sys.stderr)
        return 2
    prov = provenance(args.seed)
    print("provenance " + json.dumps(prov))
    if args.workload == "all":
        records = [
            run_one(w, args.seed, args.seconds, traced) for w in WORKLOADS for traced in (False, True)
        ]
        metrics = {
            f"{r['workload']}.{name}": value
            for r in records
            for name, value in r["metrics"].items()
            if not r["trace"] or name.startswith("trace.")
        }
        for workload in WORKLOADS:
            ratio, pairs = (metrics[f"{workload}.trace.{k}"]["value"] for k in ("overhead_ratio", "pairs"))
            print(f"tracing overhead {workload:8} {ratio:+.1%} (median of {pairs} pairs)")
    else:
        records = [run_one(args.workload, args.seed, args.seconds, bool(args.trace))]
        metrics = records[0]["metrics"]
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    save(f"{args.workload}-seed{args.seed}-trace{args.trace}.json", {"provenance": prov, "runs": records})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
