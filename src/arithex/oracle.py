"""Exhaustive desk-scale ground truth for the counting engine.

Generates every constructible expression on each subset of {x1..xn} by
closing the atoms under the four operations with disjoint variable sets,
deduplicating by canonical form.  Each pair of a left and a right
operand is combined under every operator by one call of the per-pair
function that ``canon.pair_combiner`` makes for the build's operators,
through one polynomial table for the whole build (see ``canon``) that is
dropped when the build returns, and the same loop records each result it
returns.  Each stored form is its own record, an ``AEntry``, whose
operands are records; the build makes one record per stored form, none
per repeated result.  The build also finds every isomorphism class and
gives it its type and ending operator, as below; ``verify`` checks it all
against the recurrence engine and the published values.

A build makes no reference cycles, so reference counting alone frees it;
the CLI relies on that and runs every command with the cyclic garbage
collector off.

Two forms are isomorphic when a relabeling of the variables maps one onto
the other (on sets of one size, not necessarily the same set).  The build
gives every entry its class, ``AEntry.cls``, one ``OrbitClass`` shared by
exactly the isomorphic entries of one size.  Every record f = L op R that
the build makes reaches the triple (op, class of L, class of R); the pair
is unordered for + and *, which are commutative and whose bipartitions the
build visits once, and ordered for - and /, the swapped records included.
The atoms share one class.  The build numbers each triple of a size when
it first meets it, one lookup per operand pair giving the numbers of all
its triples, and each entry keeps the least number it reaches; when the
size is complete, each least number becomes one class, so operands always
carry their final class.  This is exact:

* Forms that share a triple are isomorphic.  L op R and L' op R' with
  L ~ L' and R ~ R' put each operand on a complementary variable set, so
  the two relabelings join into one that maps L op R onto L' op R' (and
  R op L onto it for + and *).
* Isomorphic forms reach the same triples.  A relabeling s with s(f) = g
  maps every record L op R of f to s(L) op s(R), a record of g with
  operands of the same classes; the build makes that record, since it
  combines every pair of stored forms on complementary sets and every set
  is closed under relabeling.  And s's inverse maps g's records back.

So the forms of one class reach one set of triples and, by the first
point, forms of different classes disjoint ones: the least number a form
reaches names its class, and by induction on the size each class is
exactly an isomorphism class.  A form's type asks whether -f is stored
and, if so, in f's class; negation commutes with relabeling, so
isomorphic forms have one type, and ``classify_types`` reads it once per
class, off its rep.  An ending rule reads a record's op and its operands'
ending operators and types, so it fires once per triple, as the build
numbers it; a class ends with the rules its triples fire.  The build makes
each class at its first member on {1..k}, its rep, counts its members
there, its size, and keys none; every other set of the size must hold
each class in that number, or the set is not closed under relabeling and
the build raises.  The build is the only writer of a rep.  A class is
keyed, to the least serialization of its members, only where a key is
read, and keying writes the key alone: ``dump_lines`` keys a level for
``--dump`` and takes each record's witness from the member that realizes
its key, ``compute_orbits`` keys one for ``verify``'s class listings, and
``Family.class_key`` keys one class on the solver's first hit of it; the
counts, the category table and the other checks read ``Family.classes``
and no key.  Nothing is relabeled: ``canon.orbit``, a plain walk over all
k! relabelings, serves only those listings at k <= 4 and the tests' orbit
check, which shares no theory with the build.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, count
from operator import attrgetter
from typing import Iterator, Optional

from . import canon, counting, reference
from .canon import CanonForm
from .errors import InputError
from .exprtree import Node, Var, parse, pretty, to_canon
from .mpoly import PolyTable

# largest n an exhaustive build may take: n = 7 has 27.9M forms
MAX_N = 6

# random operand pairs behind verify's class-operation-compatibility check
_CLASS_OPERATION_SAMPLES = 100

# operand ending-operator sets that let a combination inherit the operator;
# - also needs a first-type right operand
_END_RULES = {
    "+": ("+", "*", "/"),
    "-": ("+", "*", "/"),
    "*": ("-", "+", "*"),
    "/": ("+", "-", "*"),
}


class LimitExceeded(InputError):
    """Requested size beyond the exhaustive-generation guard."""


class UnsupportedOps(InputError):
    """An operator fragment the ending-operator rules do not classify."""


class ClassificationEmpty(RuntimeError):
    """No ending-operator rule fired for a generated expression."""


class ClassificationAmbiguous(RuntimeError):
    """More than one ending-operator rule fired for a generated expression."""


class AEntry(CanonForm):
    """A stored form, its own record: the build writes each result of a
    pair into a spare AEntry, and records a new one by storing it and
    setting these slots on it.  It keeps the first way it arose,
    form = left op right, with left and right the stored records of their
    sets; an atom has op, left and right None.  Until its size is
    complete, cls holds the least number of the triples it reaches (module
    docstring).  Its type and ending operator are its class's,
    ``cls.typeclass`` and ``cls.endop``."""

    __slots__ = ("op", "left", "right", "cls", "_witness")


@dataclass
class AESet:
    """The stored forms of one subset, each mapped to itself, its record."""

    subset: tuple
    entries: dict  # each stored form, an AEntry -> itself


class Family:
    """Generated sets for every nonempty subset of {1..n}, whose records
    link to their operands' records, and the classes of each size.

    What solving against the family needs and no puzzle changes is kept on
    it, filled on first use: witness trees, class keys, and the solver's
    witness programs.
    """

    def __init__(self, n: int, ops: tuple):
        self.n = n
        self.ops = ops
        self.sets: dict = {}  # frozenset -> AESet
        self.classes: dict = {}  # k -> the classes of size k, in order of first member on {1..k}
        self._programs: dict = {}  # k -> solver witness program over {1..k}
        self._members: dict = {}  # varset -> its entries by id of their class

    def full_set(self, k: Optional[int] = None) -> AESet:
        k = self.n if k is None else k
        return self.sets[frozenset(range(1, k + 1))]

    def entry_of(self, form: CanonForm) -> AEntry:
        """The record of a stored form, given as its record or as an equal form."""
        return form if type(form) is AEntry else self.sets[form.varset].entries[form]

    def witness(self, form: CanonForm):
        """Expression tree of the first recorded construction of a stored
        form, given as its record or as an equal form."""
        entry = self.entry_of(form)
        if entry._witness is None:
            if entry.op is None:
                entry._witness = Var(next(iter(form.varset)))
            else:
                entry._witness = Node(entry.op, self.witness(entry.left),
                                      self.witness(entry.right))
        return entry._witness

    def class_key(self, form: CanonForm) -> str:
        """Key of a stored form's class, given as its record or as an equal
        form: the least serialization of its members, on {1..k} the orbit
        key.  The first call for a class keys it from the form's set, whose
        members are grouped once, so a class is keyed once."""
        entry = self.entry_of(form)
        if entry.cls.key is None:
            members = self._members.get(form.varset)
            if members is None:
                members = self._members[form.varset] = _grouped(self.sets[form.varset].entries)
            _record_class(members[id(entry.cls)])
        return entry.cls.key


def generate(n: int, ops: str = "+-*/") -> Family:
    """Close the atoms on every subset of {1..n} under the allowed ops.

    n must lie in 1..MAX_N.  Subsets are processed by size then
    lexicographically; each unordered bipartition is visited once (the side
    containing the least element first), each left operand against each
    form of the right side by one call of the build's per-pair function
    (``canon.pair_combiner``), with both operand orders for - and /, and
    each result is recorded in the same loop: a new one is stored as
    itself, a repeat only updates the record stored.  Every entry keeps
    the first (op, left, right) that produced it, its witness.

    Each (op, left, right) reaches the triple of op and the operands'
    classes, final since their sizes are complete, and its result keeps the
    least number of the triples it reaches (module docstring); when a size
    is complete, one pass over its sets makes each least number one unkeyed
    ``OrbitClass``, its first member on {1..k} its rep, checks each set's
    closure and keeps the classes in that order as ``family.classes[k]``.

    If ``check_classifiable`` passes the ops, the atoms' class ends with *,
    each triple fires its op's rule as ``_pair_numbers`` numbers it, and
    when a size is complete each class ends with the rules its triples
    fired, which ``classify_endops`` checks.  Otherwise no rule fires.
    """
    if not 1 <= n <= MAX_N:
        raise LimitExceeded(f"n={n} outside 1..{MAX_N}")
    ops_t = _ops_tuple(ops)
    family = Family(n, ops_t)
    table = PolyTable()
    combine_pair = canon.pair_combiner(ops_t, table)
    # a pair's results from combine_pair: (op, whether reversed); slot i of
    # a pair shares its triple with slot swap[i] of the swapped pair
    slots = [(op, rev) for op in ops_t for rev in ((False, True) if op in "-/" else (False,))]
    swap = [slots.index((op, not rev)) if op in "-/" else i for i, (op, rev) in enumerate(slots)]
    # each slot with its index and that of its numerator in a pair's results
    record = [(op, rev, i, 2 * i) for i, (op, rev) in enumerate(slots)]
    # each result is written into a spare record first: a new form keeps
    # it, and a repeat leaves it to the next result
    init, spare = CanonForm.__init__, object.__new__(AEntry)
    # the class of every atom: without its ending operator, no rule fires
    classify = _classifiable(ops_t)
    atoms = OrbitClass(rep=canon.atom(1, table), size=1, typeclass=1,
                       endop="*" if classify else None)
    for i in range(1, n + 1):
        a = canon.atom(i, table)
        entry = AEntry(a.num, a.den, a.varset)
        entry.op = entry.left = entry.right = entry._witness = None
        entry.cls = atoms
        family.sets[a.varset] = AESet((i,), {entry: entry})
    family.classes[1] = [atoms]
    for size in range(2, n + 1):
        joins: dict = {}  # (id of left class, id of right class) -> triple numbers by slot
        counter = count()  # numbers this size's triples
        fired: list = []  # (op, a form reaching its triple) per triple firing op's rule
        level: list = []  # the entries of this size's sets
        for subset in combinations(range(1, n + 1), size):
            fs = frozenset(subset)
            entries: dict = {}
            family.sets[fs] = AESet(subset, entries)
            level.append(entries)
            first, rest = subset[0], subset[1:]
            for mask in range(2 ** len(rest) - 1):
                left = frozenset((first, *(v for i, v in enumerate(rest) if mask >> i & 1)))
                right_entries = family.sets[fs - left].entries
                for entry1 in family.sets[left].entries:
                    c1 = id(entry1.cls)
                    for entry2 in right_entries:
                        polys = combine_pair(entry1, entry2)
                        numbers = joins.get((c1, id(entry2.cls)))
                        if numbers is None:
                            numbers = _pair_numbers(joins, entry1.cls, entry2.cls, polys, fs,
                                                    slots, swap, counter, fired)
                        # a new result is stored as itself with its witness and
                        # its triple's number; a repeat keeps the least number
                        for op, rev, i, j in record:
                            init(spare, polys[j], polys[j + 1], fs)
                            entry = entries.setdefault(spare, spare)
                            number = numbers[i]
                            if entry is spare:
                                entry.op, entry.cls, entry._witness = op, number, None
                                if rev:
                                    entry.left, entry.right = entry2, entry1
                                else:
                                    entry.left, entry.right = entry1, entry2
                                spare = object.__new__(AEntry)
                                continue
                            if number < entry.cls:
                                entry.cls = number
        # each least triple number names one class, its rep its first member
        # on {1..k}, the first set; relabeling maps the sets of a size onto
        # each other, so each holds every class in the number {1..k} does
        classes: dict = {}  # least triple number -> its class
        for entries in level:
            counts = Counter(map(attrgetter("cls"), entries))  # least number -> members here
            if classes and counts != sizes:
                raise RuntimeError(
                    f"set not closed under relabeling: {sorted(next(iter(entries)).varset)} "
                    f"holds its classes in other numbers than {{1..{size}}}")
            sizes = counts
            for entry in entries:
                cls = classes.get(entry.cls)
                if cls is None:
                    rep = CanonForm(entry.num, entry.den, entry.varset)
                    cls = classes[entry.cls] = OrbitClass(rep=rep, size=counts[entry.cls])
                entry.cls = cls
        family.classes[size] = list(classes.values())
        # a class ends with the rules its triples fire
        for op, form in fired:
            cls = family.entry_of(form).cls
            if op not in (cls.endop or ""):
                cls.endop = (cls.endop or "") + op
        if classify:
            classify_endops(family.classes[size])
        classify_types(family.classes[size], level[0])
    return family


def _pair_numbers(joins: dict, cls1: OrbitClass, cls2: OrbitClass, polys: tuple, fs: frozenset,
                  slots: list, swap: list, counter, fired: list) -> list:
    """The numbers of the triples of operand classes cls1 and cls2, by
    slot: the swapped pair's if it has them, else new ones, with f - g and
    g - f of one class sharing one, and f / g and g / f.  A new triple that
    fires its op goes to fired with its result on fs, a form reaching it."""
    c1, c2 = id(cls1), id(cls2)
    twin = joins.get((c2, c1))
    if twin is not None:
        numbers = [twin[j] for j in swap]
    else:
        numbers = []
        for i, (op, rev) in enumerate(slots):
            if not (rev and c1 == c2):
                number = next(counter)
                a, b = (cls2, cls1) if rev else (cls1, cls2)
                rule = _END_RULES[op]
                if a.endop in rule and b.endop in rule and (op != "-" or b.typeclass == 1):
                    fired.append((op, CanonForm(polys[2 * i], polys[2 * i + 1], fs)))
            numbers.append(number)
    joins[c1, c2] = numbers
    return numbers


def _ops_tuple(ops: str) -> tuple:
    """The operators of ops in +-*/ order; any other character is an input error."""
    ops_t = tuple(op for op in canon.OPS if op in set(ops))
    if not ops_t or set(ops) - set(canon.OPS):
        raise InputError(f"ops must be a nonempty subset of '+-*/', got {ops!r}")
    return ops_t


# -- orbits -------------------------------------------------------------------


@dataclass
class OrbitClass:
    """An isomorphism class of one size of a build, shared by its entries.
    The build sets all but its key, and keying sets only the key.  The rep
    is a plain form: a record points at its class, so it would make a
    reference cycle."""

    key: Optional[str] = None        # least serialization over the class = the orbit key
    rep: Optional[CanonForm] = None  # a member: the first on {1..k}
    size: int = 0                    # identity-distinct members in each set of its size
    typeclass: Optional[int] = None  # the type of every member: 1, 2 or 3
    endop: Optional[str] = None      # the ending operator of every member, None unclassified


class Orbits:
    """A classified level: its classes, sorted by key if keyed, and its
    entries (each stored form -> itself), each carrying its class as
    entry.cls."""

    def __init__(self, classes: list, entries: dict):
        self.classes = classes
        self.entries = entries

    def __len__(self) -> int:
        return len(self.classes)

    def find(self, form: CanonForm) -> CanonForm:
        """The rep of the class of a stored form."""
        return self.entries[form].cls.rep


def _grouped(entries: dict) -> dict:
    """A set's entries by class, id of the class -> its members, in order
    of first member.  A set that lacks members the build counted is not
    closed under relabeling: raise."""
    members: dict = {}
    for entry in entries.values():
        members.setdefault(id(entry.cls), []).append(entry)
    for group in members.values():
        cls = group[0].cls
        if len(group) != cls.size:
            raise RuntimeError(
                f"set not closed under relabeling: {len(group)} of the "
                f"{cls.size} members of a class are stored")
    return members


def _record_class(members: list) -> AEntry:
    """Key the class its member entries share, to its least serialization,
    and return the member that realizes it."""
    # stored instances, whose shared polynomials cache their text
    least = min(members, key=canon.form_str)
    least.cls.key = canon.form_str(least)
    return least


def _keyed(entries: dict) -> list:
    """Key every class of a set afresh; the member of each that realizes
    its key, in key order."""
    return sorted(map(_record_class, _grouped(entries).values()), key=attrgetter("cls.key"))


def compute_orbits(aeset: AESet, n: int) -> Orbits:
    """The classes of a generated set on {1..n}, each keyed afresh, sorted
    by key."""
    return Orbits([member.cls for member in _keyed(aeset.entries)], aeset.entries)


# -- classification -----------------------------------------------------------


def check_classifiable(ops: str) -> None:
    """Reject fragments with - but no +, or / but no *, then any ops that
    generate would reject.

    The ending rules read a - b - c only as a - (b + c), and a / b / c only
    as a / (b * c), so without those operators some expressions match no
    rule.
    """
    if not _classifiable(ops):
        raise UnsupportedOps(
            f"ops {ops!r} cannot be classified: '-' needs '+' and '/' needs '*'"
        )
    _ops_tuple(ops)


def _classifiable(ops) -> bool:
    return ("-" not in ops or "+" in ops) and ("/" not in ops or "*" in ops)


def classify_endops(classes: list) -> None:
    """Close a complete size of a classifying build by its classes: exactly
    one ending rule must have fired for each, its endop.  Anything else is
    a hard failure of the classification laws and raises, naming the rep of
    the first class that fails, the first member of {1..k} whose class does."""
    for cls in classes:
        if cls.endop is None:
            raise ClassificationEmpty(f"no ending rule fired for {cls.rep!r}")
        if len(cls.endop) > 1:
            raise ClassificationAmbiguous(f"rules {sorted(cls.endop)} all fired for {cls.rep!r}")


def classify_types(classes: list, entries: dict) -> None:
    """Type each class of a complete size by its rep in entries, the set
    {1..k}: negation commutes with relabeling, so isomorphic forms have one type."""
    for cls in classes:
        cls.typeclass = _type_rule(entries.get(canon.negate(cls.rep)), cls)


def _type_rule(neg: Optional[AEntry], cls: OrbitClass) -> int:
    """The type of a form of class cls whose negation is neg, None if not
    stored: 1 if -f is not constructible, 3 if it is isomorphic to f, else
    2.  The classes are exact, so no search."""
    return 1 if neg is None else 3 if neg.cls is cls else 2


def category_table(orbits: Orbits) -> dict:
    """The twelve per-operator, per-type class counts of a classified level."""
    cells = {op: {1: 0, 2: 0, 3: 0} for op in canon.OPS}
    for cls in orbits.classes:
        cells[cls.endop][cls.typeclass] += 1
    return cells


def dump_lines(family: Family, aeset: AESet) -> Iterator[dict]:
    """One JSON-ready record per class of a generated set on {1..k}, each
    keyed afresh, in key order: its key, the witness and size n of the
    member that realizes the key, and the class's ending operator, type
    and orbit size."""
    for member in _keyed(aeset.entries):
        cls = member.cls
        yield {
            "n": len(member.varset),
            "class": cls.key,
            "witness": pretty(family.witness(member)),
            "endop": cls.endop,
            "type": cls.typeclass,
            "orbit_size": cls.size,
        }


def summarize(n: int, ops: str = "+-*/", dump=None) -> tuple:
    """Build and classify the level n: its ops in +-*/ order, identity
    count, class count and category table.  With a text file as dump, the
    level is keyed too and one JSON line per class (``dump_lines``), in
    key order, is written to it."""
    check_classifiable(ops)
    family = generate(n, ops=ops)
    aeset = family.full_set()
    orbits = Orbits(family.classes[n], aeset.entries)
    if dump is not None:
        for record in dump_lines(family, aeset):
            dump.write(json.dumps(record) + "\n")
    return "".join(family.ops), len(aeset.entries), len(orbits), category_table(orbits)


# -- verification -------------------------------------------------------------


@dataclass
class Check:
    name: str
    n: int
    ok: bool
    detail: str = ""

    def line(self) -> str:
        status = "ok" if self.ok else "MISMATCH"
        detail = f" ({self.detail})" if self.detail else ""
        return f"[{status}] n={self.n} {self.name}{detail}"


@dataclass
class VerifyReport:
    checks: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, name: str, n: int, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(name, n, bool(ok), detail))

    def lines(self) -> list:
        return [c.line() for c in self.checks]


def verify(n_max: int, ops: str = "+-*/", seed: int = 0) -> VerifyReport:
    """Cross-check the generated universe against the engine and the
    published values; every mismatch becomes a failed check in the report."""
    check_classifiable(ops)
    report = VerifyReport()
    rng = random.Random(seed)
    try:
        family = generate(n_max, ops=ops)
    except (ClassificationEmpty, ClassificationAmbiguous) as exc:
        report.add("ending-rule-partition", n_max, False, str(exc))
        return report
    report.add("ending-rule-partition", n_max, True)
    all_ops = set(ops) == set(canon.OPS)
    engine = counting.class_counts(n_max) if all_ops else None
    sp_ops = set(ops) == {"+", "*"}

    for k in range(1, n_max + 1):
        aeset = family.full_set(k)
        orbits = Orbits(family.classes[k], aeset.entries)
        cells = category_table(orbits)

        if all_ops:
            expected = reference.IDENTITY_COUNTS.get(k)
            got = len(aeset.entries)
            report.add("identity-count", k, got == expected, f"{got} vs {expected}")
            report.add(
                "orbit-count-vs-engine",
                k,
                len(orbits) == engine.total(k),
                f"{len(orbits)} vs {engine.total(k)}",
            )
            ok = all(
                cells[op][t] == engine.cell(k, op, t)
                for op in canon.OPS
                for t in (1, 2, 3)
            )
            report.add("category-table-vs-engine", k, ok)
        elif sp_ops and k <= len(reference.SERIES_PARALLEL_ORBIT_COUNTS):
            expected = reference.SERIES_PARALLEL_ORBIT_COUNTS[k - 1]
            report.add(
                "orbit-count-series-parallel",
                k,
                len(orbits) == expected,
                f"{len(orbits)} vs {expected}",
            )

        report.add(
            "orbit-sizes-sum-to-identity-count",
            k,
            sum(c.size for c in orbits.classes) == len(aeset.entries),
        )
        report.add("type2-negation-pairing", k, _check_type2_pairing(orbits))
        report.add(
            "type2-pool-evenness",
            k,
            all(
                sum(cells[op][2] for op in pool) % 2 == 0
                for pool in (("*",), ("/",), ("+", "-"))
            ),
        )
        report.add("classification-invariance", k, _check_invariance(orbits))

        if all_ops and k == 3:
            report.add("three-var-identity-listing", k, _check_three_var_listing(aeset.entries))
            report.add("three-var-class-listing", k, _check_class_listing(
                aeset, reference.THREE_VAR_CLASSES))
        if sp_ops and k == 4:
            report.add("series-parallel-four-var-classes", k, _check_class_listing(
                aeset, reference.SERIES_PARALLEL_FOUR_VAR_CLASSES))

    report.add(
        "class-operation-compatibility",
        n_max,
        _check_class_operations(family, rng),
    )
    return report


def _check_type2_pairing(orbits: Orbits) -> bool:
    """Negation must match type-2 classes into disjoint pairs: the negated
    rep of a type-2 class lies in another type-2 class, whose negated rep
    lies in the first."""
    entries = orbits.entries
    for cls in orbits.classes:
        if cls.typeclass != 2:
            continue
        neg = entries.get(canon.negate(cls.rep))
        if neg is None or neg.cls is cls or neg.cls.typeclass != 2:
            return False
        back = entries.get(canon.negate(neg.cls.rep))
        if back is None or back.cls is not cls:
            return False
    return True


def _check_invariance(orbits: Orbits) -> bool:
    """Type must agree across each class: each entry, typed by itself, has
    its class's type.  (Its ending operator is its class's own.)"""
    entries = orbits.entries
    # the entries share their numerators, so each distinct one is negated
    # once, through its terms: numerator -> the stored numerator equal to
    # its negation, or None
    stored = {form.num.terms: form.num for form in entries}
    negations = {num: stored.get(tuple([(m, -c) for m, c in terms]))
                 for terms, num in stored.items()}
    for entry in entries:
        cls, neg_num = entry.cls, negations[entry.num]
        neg = None if neg_num is None else entries.get(CanonForm(neg_num, entry.den, entry.varset))
        if _type_rule(neg, cls) != cls.typeclass:
            return False
    return True


def _check_three_var_listing(entries: dict) -> bool:
    expected = {to_canon(parse(t)) for t in reference.THREE_VAR_EXPRESSIONS}
    return len(expected) == 68 and expected == set(entries)


def _check_class_listing(aeset: AESet, listed: list) -> bool:
    expected = {canon.orbit_key(to_canon(parse(t))) for t in listed}
    return expected == {c.key for c in compute_orbits(aeset, len(aeset.subset)).classes}


def _check_class_operations(family: Family, rng: random.Random) -> bool:
    """Combining stays well defined on classes: isomorphic operands with
    disjoint variables give isomorphic results.  Both results, relabeled
    onto {1..k}, must be stored in the classified level k with one class."""
    if family.n < 2:
        return True
    subsets = [s for s in family.sets if 0 < len(s) < family.n]
    for _ in range(_CLASS_OPERATION_SAMPLES):
        left = rng.choice(subsets)
        # for n >= 2 each proper subset misses a singleton, so this pool has one
        right = rng.choice([s for s in subsets if not (s & left)])
        f = rng.choice(list(family.sets[left].entries))
        g = rng.choice(list(family.sets[right].entries))
        f2 = canon.apply_perm(_random_perm_of(left, rng), f)
        g2 = canon.apply_perm(_random_perm_of(right, rng), g)
        op = rng.choice(family.ops)
        a = canon.relabel_contiguous(canon.combine(op, f, g))
        b = canon.relabel_contiguous(canon.combine(op, f2, g2))
        entries = family.full_set(len(a.varset)).entries
        if a not in entries or b not in entries or entries[a].cls is not entries[b].cls:
            return False
    return True


def _random_perm_of(varset: frozenset, rng: random.Random) -> dict:
    src = sorted(varset)
    dst = src[:]
    rng.shuffle(dst)
    return dict(zip(src, dst))
