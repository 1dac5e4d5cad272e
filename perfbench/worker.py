"""One benchmark process on the program's side.

``run.py`` starts it as ``python3 perfbench/worker.py`` with a JSON request
on stdin.  It imports arithex from the checkout's ``src``, does the
requested work, and prints one JSON line: its timings, what the checks
need, its peak RSS and the monotonic time at which imports were done (the
parent turns that into start-up plus import time).

Every timed operation comes with an estimate of how long ``REF_SAMPLES``
runs of a fixed reference workload (``sample_s``) took while it ran
(``"ref_s"``): a ``SpeedSampler`` interrupts the operation every
``SAMPLE_EVERY_S`` and times one run.  The parent divides the operation's time
by it, which cancels the swings in the machine's speed that the operation
shares with the reference workload.  The samples' own time is left out of the
operation's time.

Requests:

* ``{"mode": "cli", "argv": [...], "sample": bool}``: one ``cli.main(argv)``
  call with stdout captured; only the call is timed, with the speed
  sampled when ``sample`` is true.
* ``{"mode": "solve", "puzzles": [...], "builds": k, "build_before": [...],
  "at_least": m, "seconds": s}``: solve the puzzles in order, each timed
  from the query to its rendered ``--json`` payload, against an n = 5
  family built before each puzzle index in ``build_before``; the rest of
  the k builds run at the end, so the timed set-up samples spread over the
  run.  After the first m puzzles it stops before a puzzle that would end
  past ``s`` seconds from the start, leaving time for the builds still to
  run (never when ``s`` is null).
* ``{"mode": "solve_pairs", "puzzles": [...]}``: the traced run's fixed
  work, one family build and the puzzles, with each step done twice, once
  untraced and once traced, in alternating order.

With ``"spans": PATH`` a cli request runs traced, and so do the traced
halves of ``solve_pairs``; the spans are written to PATH and the derived
layer metrics come back under ``"layers"``.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import signal
import statistics
import sys
import time
import traceback

import checks

checks.use_program_source()

from arithex import cli, oracle, solver  # noqa: E402
from arithex.exprtree import eval_tree  # noqa: E402  (not the traced solver.eval_tree)
from arithex.projrat import INF, UNDEFINED, fmt  # noqa: E402

import tracer as tracing  # noqa: E402

IMPORTED = time.monotonic()
SOLVE_N = 5
SAMPLE_ITERS = 1_000     # one sample: about 2.5 ms on a 2-vCPU Xeon at full speed
REF_SAMPLES = 20         # the unit "ref" is the time of 20 samples
SAMPLE_EVERY_S = 0.1


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a, self.b = a, b

    def f(self, x: int) -> int:
        return (self.a * x + self.b) % 1009


def sample_s() -> float:
    """Time of a fixed mix of pure-Python work: objects, method calls, dicts,
    strings and a sort.  It touches no arithex code or data.

    The machine this was tuned on has slow phases, and in them the program
    slows down more than a plain addition loop: over 122 engine tables, the
    log-log slope of table time against loop time was 1.61.  Against this
    mix it was 1.19 over 50 tables, so the mix tracks the program better.
    The garbage collector is held off, so that the program's heap does not
    enter the time.
    """
    enabled = gc.isenabled()
    gc.disable()
    began = time.perf_counter()
    counts, out = {}, []
    for i in range(SAMPLE_ITERS):
        v = _Point(i, i >> 2).f(i)
        key = (v, i & 7)
        counts[key] = counts.get(key, 0) + 1
        out.append(str(v))
    ",".join(out)
    sorted(counts.items())
    elapsed = time.perf_counter() - began
    if enabled:
        gc.enable()
    return elapsed


class SpeedSampler:
    """Samples the machine's speed while one operation runs.

    ``timed(fn)`` takes a sample, runs ``fn`` with a SIGALRM timer that takes
    one every ``SAMPLE_EVERY_S``, takes a last one, and returns ``fn``'s
    result, its time without the samples taken inside it, and the time of
    ``REF_SAMPLES`` samples at the speed the samples show.
    """

    def __init__(self):
        self.samples: list = []
        self.stolen = 0.0
        signal.signal(signal.SIGALRM, self._interrupt)

    def _interrupt(self, signum, frame) -> None:
        began = time.perf_counter()
        self.samples.append(sample_s())
        self.stolen += time.perf_counter() - began

    def timed(self, fn) -> tuple:
        self.samples, self.stolen = [sample_s()], 0.0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        began = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - began  # every sample in `stolen` fell inside it
        self.samples.append(sample_s())
        ref = statistics.fmean(self.samples) * REF_SAMPLES
        return result, elapsed - self.stolen, ref


def run_cli(request: dict, tr) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if request.get("sample"):
            rc, elapsed, ref = SpeedSampler().timed(lambda: cli.main(request["argv"]))
        else:  # a traced run: nothing of the benchmark's may run inside the spans
            began = time.perf_counter()
            rc = cli.main(request["argv"])
            elapsed, ref = time.perf_counter() - began, None
    return {"elapsed_s": elapsed, "ref_s": ref, "rc": rc, "stdout": buf.getvalue()}


def solve_one(numbers: list, target, family) -> tuple:
    """Solve and render one puzzle the way ``solve --json`` does."""
    query = solver.make_query(numbers, INF if target == "inf" else target)
    solutions = solver.solve(query, family)
    payload = {
        "numbers": [str(x) for x in query.numbers],
        "target": fmt(query.target),
        "classes": solver.class_uniqueness(solutions),
        "solutions": [s.to_dict() for s in solutions],
    }
    return query, solutions, json.dumps(payload, indent=2)


def outcome(query, solutions) -> dict:
    """What the parent checks: witnesses reach the target, keys are distinct."""
    bad = 0
    for s in solutions:
        value = eval_tree(s.witness, s.assignment)
        if s.extension != (value is UNDEFINED) or (not s.extension and value != query.target):
            bad += 1
    keys = {s.class_key for s in solutions}
    return {
        "solutions": len(solutions),
        "classes": len(keys),
        "bad_witnesses": bad,
        "keys": checks.keys_digest(keys),
    }


def run_solve(request: dict, tr) -> dict:
    seconds, at_least = request.get("seconds"), request.get("at_least", 0)
    builds, latencies, refs, outcomes = [], [], [], []
    family, sampler = None, SpeedSampler()

    def build():
        nonlocal family
        family = None  # free the previous family before the next build
        began = time.perf_counter()
        family = oracle.generate(SOLVE_N)
        builds.append(time.perf_counter() - began)

    began = time.perf_counter()
    for i, puzzle in enumerate(request["puzzles"]):
        started = time.perf_counter()
        if seconds is not None and i >= at_least:
            left = request["builds"] - len(builds)
            if started - began + last + left * builds[-1] > seconds:
                break
        if i in request["build_before"] and len(builds) < request["builds"]:
            build()
        (query, solutions, _), latency, ref = sampler.timed(lambda: solve_one(puzzle[0], puzzle[1], family))
        latencies.append(latency)
        refs.append(ref)
        outcomes.append(outcome(query, solutions))
        last = time.perf_counter() - started
    while len(builds) < request["builds"]:
        build()
    return {"builds_s": builds, "latencies_s": latencies, "refs_s": refs, "outcomes": outcomes}


def run_solve_pairs(request: dict, tr) -> dict:
    """Each step untraced and traced, the traced half first on odd steps."""
    untraced, traced, outcomes = [], [], []
    family = None
    steps = [None] + request["puzzles"]  # None is the family build
    for k, puzzle in enumerate(steps):
        for with_tracing in (k % 2 == 1, k % 2 == 0):
            with tracing.installed(tr) if with_tracing else contextlib.nullcontext():
                began = time.perf_counter()
                if puzzle is None:
                    built = oracle.generate(SOLVE_N)
                else:
                    query, solutions, _ = solve_one(puzzle[0], puzzle[1], family)
                elapsed = time.perf_counter() - began
            (traced if with_tracing else untraced).append(elapsed)
            if puzzle is None:
                family = built
            else:
                outcomes.append(outcome(query, solutions))
    return {"untraced_s": untraced, "traced_s": traced, "outcomes": outcomes}


def main() -> int:
    request = json.load(sys.stdin)
    run = {"cli": run_cli, "solve": run_solve, "solve_pairs": run_solve_pairs}[request["mode"]]
    spans_path = request.get("spans")
    try:
        if request["mode"] == "solve_pairs":
            tr = tracing.Tracer()
            result = run(request, tr)
        elif spans_path:
            tr = tracing.Tracer()
            with tracing.installed(tr):
                result = run(request, tr)
        else:
            tr = None
            result = run(request, None)
        if tr is not None:
            result["layers"] = tracing.layer_metrics(tr)
            result["spans"] = len(tr.start)
            if spans_path:
                tr.write(spans_path)
    except Exception:  # the parent counts the operation as failed
        result = {"error": traceback.format_exc()}
    result["imported"] = IMPORTED
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
