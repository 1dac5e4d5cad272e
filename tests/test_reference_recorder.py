"""The benchmark's reference recorder still runs against the library.

``perfbench/make_reference.py`` records ``perfbench/reference.json`` from
``oracle.compute_orbits``, ``Orbits.find`` and ``Orbits.classes``,
``Family.full_set`` and ``solver.solve``.  It runs only when someone
regenerates the reference, so a change to those calls would surface only
then; this test runs them now.  It loads the recorder by path, as
``perfbench/`` runs it, and changes nothing there.
"""

import importlib.util
from pathlib import Path

from arithex import canon, oracle

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_recorder(monkeypatch):
    # the recorder imports its sibling ``checks`` and puts ``src`` on the
    # path; monkeypatch restores sys.path afterwards
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location(
        "perfbench_make_reference", BENCH / "make_reference.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recorder_keys_and_solver_agree(monkeypatch):
    recorder = load_recorder(monkeypatch)
    family = oracle.generate(5)
    key_of = recorder.class_key_of_form(family)
    assert len(key_of) == 27142
    # each of the 500 keys is the least text among the forms it keys
    least: dict = {}
    for f, key in key_of.items():
        text = canon.form_str(f)
        if key not in least or text < least[key]:
            least[key] = text
    assert len(least) == 500
    assert all(key == text for key, text in least.items())
    # the first recorded puzzles, worked out both ways the recorder does
    forms = [((f.num.terms, f.den.terms), key_of[f]) for f in family.full_set(5).entries]
    pool = recorder.checks.load_reference()["pool"]
    for numbers, target, hit_forms, classes, digest in (pool["finite"][0], pool["projective"][0]):
        keys = recorder.hit_keys(forms, numbers, target)
        assert (len(keys), len(set(keys))) == (hit_forms, classes)
        assert recorder.checks.keys_digest(set(keys)) == digest
        assert recorder.solver_digest(family, numbers, target) == digest
