"""Spans and counts recorded around calls into arithex, from outside it.

The program is not changed.  ``installed`` replaces, for the duration of a
``with`` block, the names that callers look up with wrappers that record
into a ``Tracer``:

* a *span* wrapper records name, start, end and parent span of every call;
* a *count* wrapper only counts calls.  It is used for the leaves whose
  calls are the only figure asked for (``CategoryTable.cls`` and
  ``multiset_coeff`` run about a million times per table), where a span
  per call would swamp the run and its memory.

Where a caller imported a name (``counting.count_weighings``,
``canon.p_div``) or binds it at call time (``oracle.generate`` binds
``combine = canon.combine``), the wrapper replaces the name the caller
looks up.  ``eval_tree`` and ``pretty`` recurse through their own module
globals, so they are wrapped where ``solver`` looks them up: one span per
call from the solver, never nested in itself.  No wrapped name calls
itself through the wrapper, so summed span durations count no time twice.

Spans live in four int64 arrays and are written out with ``write`` once
the work is done; ``layer_metrics`` derives the per-layer figures from
them.  A layer's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import json
import math
import time
from array import array
from contextlib import contextmanager

# (metric name, unit); every traced run reports all of them, 0 where the
# workload never reaches the layer.
LAYER_METRICS = [
    ("counting.class_counts.s", "s"),
    ("counting.CategoryTable.cls.calls", "count"),
    ("counting.CategoryTable.to_text.s", "s"),
    ("partitions.count_weighings.calls", "count"),
    ("partitions.count_weighings.s", "s"),
    ("partitions.weighing_terms.calls", "count"),
    ("partitions.weighing_terms.s", "s"),
    ("partitions.multiset_coeff.calls", "count"),
    ("partitions.all_partitions.s", "s"),
    ("partitions.partitions_visited", "count"),
    ("oracle.generate.s", "s"),
    ("oracle.generate.forms", "count"),
    ("oracle.generate.dedup_ratio", "ratio"),
    ("oracle.classify_endops.s", "s"),
    ("oracle.compute_orbits.s", "s"),
    ("oracle.classify_types.s", "s"),
    ("oracle.verify.self_s", "s"),
    ("oracle.Family.witness.calls", "count"),
    ("canon.combine.calls", "count"),
    ("canon.combine.s", "s"),
    ("canon.apply_perm.calls", "count"),
    ("canon.apply_perm.s", "s"),
    ("canon.form_str.calls", "count"),
    ("canon.form_str.s", "s"),
    ("canon.is_isomorphic.calls", "count"),
    ("canon.is_isomorphic.s", "s"),
    ("canon.negate.calls", "count"),
    ("canon.orbit_key.calls", "count"),
    ("canon.orbit_key.s", "s"),
    ("canon.orbit_key.relabelings", "count"),
    ("canon.eval_form.calls", "count"),
    ("canon.eval_form.s", "s"),
    ("mpoly.MultiPoly.mul_disjoint.calls", "count"),
    ("mpoly.MultiPoly.mul_disjoint.s", "s"),
    ("mpoly.MultiPoly.content.calls", "count"),
    ("mpoly.MultiPoly.content.s", "s"),
    ("mpoly.MultiPoly.evaluate.s", "s"),
    ("mpoly.term_products", "count"),
    ("projrat.p_div.calls", "count"),
    ("projrat.undefined_results", "count"),
    ("exprtree.eval_tree.s", "s"),
    ("exprtree.pretty.s", "s"),
    ("solver.solve.s", "s"),
    ("solver.hits", "count"),
    ("solver.hit_ratio", "ratio"),
    ("solver.solutions", "count"),
    ("cli.main.self_s", "s"),
]

class Tracer:
    """Spans (name id, parent index, start ns, end ns) plus named counters."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.current = -1
        self.counts: dict = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, counter: str, amount: int = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def spanned(self, name: str, fn, after=None, materialize: bool = False):
        name_id = self.name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer.current
            idx = len(starts)
            names.append(name_id)
            parents.append(parent)
            starts.append(clock())
            ends.append(0)
            tracer.current = idx
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    # a generator's work happens while it is consumed
                    result = iter(list(result))
            finally:
                ends[idx] = clock()
                tracer.current = parent
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def counted(self, name: str, fn, after=None):
        counts, key = self.counts, f"{name}.calls"
        counts.setdefault(key, 0)
        tracer = self

        def wrapper(*args, **kwargs):
            counts[key] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def write(self, path: str) -> None:
        """One JSON header line, then the four columns as native int64."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "columns": ["name", "parent", "start_ns", "end_ns"],
            "counts": self.counts,
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(handle)


_partition_numbers = [1]


def partition_number(n: int) -> int:
    """p(n) by Euler's pentagonal recurrence, independent of arithex."""
    p = _partition_numbers
    while len(p) <= n:
        m, total, k = len(p), 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[m - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p.append(total)
    return p[n]


def _targets():
    """(owner, attribute, metric name, kind, after-hook) for every wrapper."""
    from arithex import canon, cli, counting, mpoly, oracle, partitions, projrat, solver

    def visited(tr, args, result):
        tr.add("partitions.partitions_visited", partition_number(args[1]))

    def products(tr, args, result):
        tr.add("mpoly.term_products", len(args[0].terms) * len(args[1].terms))

    def relabelings(tr, args, result):
        tr.add("canon.orbit_key.relabelings", math.factorial(len(args[0].varset)))

    def forms(tr, args, result):
        tr.add("oracle.generate.forms", sum(len(s.entries) for s in result.sets.values()))

    def undefined(tr, args, result):
        if result is projrat.UNDEFINED:
            tr.add("projrat.undefined_results")

    def solutions(tr, args, result):
        tr.add("solver.solutions", len(result))

    Poly, Table, Family = mpoly.MultiPoly, counting.CategoryTable, oracle.Family
    return [
        (cli, "main", "cli.main", "span", None),
        (counting, "class_counts", "counting.class_counts", "span", None),
        (Table, "cls", "counting.CategoryTable.cls", "count", None),
        (Table, "to_text", "counting.CategoryTable.to_text", "span", None),
        ((counting, partitions), "count_weighings", "partitions.count_weighings", "span", visited),
        (counting, "weighing_terms", "partitions.weighing_terms", "generator", visited),
        (partitions, "multiset_coeff", "partitions.multiset_coeff", "count", None),
        (partitions, "all_partitions", "partitions.all_partitions", "span", None),
        (oracle, "generate", "oracle.generate", "span", forms),
        (oracle, "classify_endops", "oracle.classify_endops", "span", None),
        (oracle, "compute_orbits", "oracle.compute_orbits", "span", None),
        (oracle, "classify_types", "oracle.classify_types", "span", None),
        (oracle, "verify", "oracle.verify", "span", None),
        (Family, "witness", "oracle.Family.witness", "count", None),
        (canon, "combine", "canon.combine", "span", None),
        (canon, "apply_perm", "canon.apply_perm", "span", None),
        (canon, "form_str", "canon.form_str", "span", None),
        (canon, "is_isomorphic", "canon.is_isomorphic", "span", None),
        (canon, "negate", "canon.negate", "count", None),
        (canon, "orbit_key", "canon.orbit_key", "span", relabelings),
        (canon, "eval_form", "canon.eval_form", "span", None),
        (canon, "p_div", "projrat.p_div", "count", undefined),
        (Poly, "mul_disjoint", "mpoly.MultiPoly.mul_disjoint", "span", products),
        (Poly, "content", "mpoly.MultiPoly.content", "span", None),
        (Poly, "evaluate", "mpoly.MultiPoly.evaluate", "span", None),
        (solver, "solve", "solver.solve", "span", solutions),
        (solver, "eval_tree", "exprtree.eval_tree", "span", None),
        (solver, "pretty", "exprtree.pretty", "span", None),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Wrap every traced name for the duration of the block, then restore."""
    saved = []
    try:
        for owners, attr, name, kind, after in _targets():
            owners = owners if isinstance(owners, tuple) else (owners,)
            original = getattr(owners[0], attr)
            if kind == "count":
                wrapper = tracer.counted(name, original, after)
            else:
                wrapper = tracer.spanned(name, original, after, materialize=kind == "generator")
            for owner in owners:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict:
    """Every LAYER_METRICS value derived from the recorded spans and counts."""
    n = len(tracer.start)
    names, parents = tracer.name, tracer.parent
    duration = array("q", (e - s for s, e in zip(tracer.start, tracer.end)))
    children = array("q", bytes(8 * n))
    for i in range(n):
        if parents[i] >= 0:
            children[parents[i]] += duration[i]
    calls = [0] * len(tracer.names)
    total = [0] * len(tracer.names)
    own = [0] * len(tracer.names)
    for i in range(n):
        k = names[i]
        calls[k] += 1
        total[k] += duration[i]
        own[k] += duration[i] - children[i]

    def child_calls(child: str, parent: str) -> int:
        # spans of `child` opened directly inside a `parent` span
        if child not in tracer._ids or parent not in tracer._ids:
            return 0
        c, p = tracer._ids[child], tracer._ids[parent]
        return sum(1 for i in range(n) if names[i] == c and parents[i] >= 0 and names[parents[i]] == p)

    values = dict(tracer.counts)
    for name, k in tracer._ids.items():
        values[f"{name}.calls"] = calls[k]
        values[f"{name}.s"] = total[k] / 1e9
        values[f"{name}.self_s"] = own[k] / 1e9
    generate_combines = child_calls("canon.combine", "oracle.generate")
    values["oracle.generate.dedup_ratio"] = (
        values.get("oracle.generate.forms", 0) / generate_combines if generate_combines else 0.0
    )
    hits = child_calls("canon.orbit_key", "solver.solve")
    evals = child_calls("canon.eval_form", "solver.solve")
    values["solver.hits"] = hits
    values["solver.hit_ratio"] = hits / evals if evals else 0.0
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in LAYER_METRICS}
