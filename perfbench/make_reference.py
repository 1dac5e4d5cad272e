"""Record the outputs the benchmark checks against, from the current code.

Run it from the repository root at a commit whose outputs are trusted:

    python3 perfbench/make_reference.py

It rewrites ``perfbench/reference.json`` with

* the per-level cell digests of ``count --max-n 30`` and the published
  orbit totals the ``totals:`` line must start with;
* the digest of the ``verify --max-n N`` output for N = 3 and 5 (the check
  lines do not depend on ``--seed``);
* the puzzle pool ``solve5`` samples from.  Each puzzle carries the digest
  of its sorted class keys, the number of hit forms and of classes.

Class keys are worked out here without the solver: every form of the n = 5
universe is evaluated at the puzzle's integers with exact integer
arithmetic, and a hit form's key is the key of its orbit from
``compute_orbits``.  A sample of the pool is also run through
``solver.solve`` and must give the same digest.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys

import checks

checks.use_program_source()

from arithex import cli, oracle, reference, solver  # noqa: E402
from arithex.projrat import INF  # noqa: E402

POOL_SEED = 5
FINITE_PUZZLES = 896
PROJECTIVE_PUZZLES = 128
CROSS_CHECKED = 12


def draw_pool(rng: random.Random) -> tuple:
    """Puzzles as (numbers, target): 5 numbers uniform in 1..10 with an
    integer target uniform in 1..100, or one number set to 0 and target inf."""
    finite = [
        ([rng.randint(1, 10) for _ in range(5)], rng.randint(1, 100))
        for _ in range(FINITE_PUZZLES)
    ]
    projective = []
    for _ in range(PROJECTIVE_PUZZLES):
        numbers = [rng.randint(1, 10) for _ in range(5)]
        numbers[rng.randrange(5)] = 0
        projective.append((numbers, "inf"))
    return finite, projective


def class_key_of_form(family: oracle.Family) -> dict:
    aeset = family.full_set(5)
    orbits = oracle.compute_orbits(aeset, 5)
    key_of_root = {orbits.find(c.rep): c.key for c in orbits.classes}
    return {form: key_of_root[orbits.find(form)] for form in aeset.entries}


def _value(terms, point) -> int:
    total = 0
    for monomial, coeff in terms:
        for v in monomial:
            coeff *= point[v]
        total += coeff
    return total


def hit_keys(forms: list, numbers: list, target) -> list:
    """Class keys of the forms equal to target at x_i = numbers[i-1]."""
    point = (None, *numbers)
    keys = []
    for (num_terms, den_terms), key in forms:
        num, den = _value(num_terms, point), _value(den_terms, point)
        if target == "inf":
            hit = den == 0 and num != 0
        else:
            hit = den != 0 and num == target * den
        if hit:
            keys.append(key)
    return keys


def solver_digest(family: oracle.Family, numbers: list, target) -> str:
    query = solver.make_query(numbers, INF if target == "inf" else target)
    return checks.keys_digest({s.class_key for s in solver.solve(query, family)})


def cli_stdout(argv: list) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"arithex {' '.join(argv)} exited {rc}")
    return buf.getvalue()


def main() -> int:
    levels = checks.table_levels(cli_stdout(["count", "--max-n", "30"]))
    verify_output = {
        str(n): checks.sha16(cli_stdout(["verify", "--max-n", str(n)])) for n in (3, 5)
    }
    family = oracle.generate(5)
    key_of = class_key_of_form(family)
    forms = [((f.num.terms, f.den.terms), key_of[f]) for f in family.full_set(5).entries]
    finite, projective = draw_pool(random.Random(POOL_SEED))
    pool = {}
    for name, puzzles in (("finite", finite), ("projective", projective)):
        rows = []
        for numbers, target in puzzles:
            keys = hit_keys(forms, numbers, target)
            rows.append([numbers, target, len(keys), len(set(keys)), checks.keys_digest(set(keys))])
        pool[name] = rows
        print(f"{name}: {len(rows)} puzzles", file=sys.stderr)
    rng = random.Random(POOL_SEED + 1)
    sample = rng.sample(pool["finite"], CROSS_CHECKED - 2) + rng.sample(pool["projective"], 2)
    for numbers, target, _, _, digest in sample:
        if solver_digest(family, numbers, target) != digest:
            raise SystemExit(f"solver disagrees with the orbit keys on {numbers} -> {target}")
    ref = {
        "orbit_totals": {str(n): reference.ORBIT_TOTALS[n] for n in range(1, 18)},
        "engine_levels": {str(n): checks.level_digest(c) for n, c in sorted(levels.items())},
        "verify_output": verify_output,
        "pool_fields": ["numbers", "target", "hit_forms", "classes", "keys"],
        "pool": pool,
    }
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(ref, handle, separators=(",", ":"))
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
