"""The benchmark's layer boundaries all exist, and its tracer leaves no trace.

``perfbench/spans.py`` skips a boundary the package no longer has, and that
boundary's per-layer metrics then read 0.  Here a missing boundary fails.
"""

import importlib.util
import inspect

from conftest import ROOT
from tierlang import cli, genprog, interp1, opreg, parser, safety1, secondorder, syntax, words

MODULES = [cli, genprog, interp1, opreg, parser, safety1, secondorder, syntax, words]


def load_spans():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def namespaces():
    """Every module of the package and every class defined in one."""
    out = list(MODULES)
    for module in MODULES:
        out += [
            c for c in vars(module).values()
            if inspect.isclass(c) and c.__module__ == module.__name__
        ]
    return out


def test_every_boundary_exists_and_uninstall_restores_it():
    spans = load_spans()
    missing = []

    class StrictTracer(spans.Tracer):
        def _missing(self, owner, attr):
            gone = spans.Tracer._missing(owner, attr)
            if gone:
                missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return gone

    before = {id(ns): dict(vars(ns)) for ns in namespaces()}
    tracer = StrictTracer()
    try:
        spans.install(tracer)
        assert missing == []
        assert tracer._undo
        for owner, attr, original in tracer._undo:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    for ns in namespaces():
        after = vars(ns)
        changed = [k for k, v in before[id(ns)].items() if after.get(k) is not v]
        assert changed == [], (ns, changed)


def test_a_traced_check_records_the_constraint_counts(capsys):
    """``spans.install`` sizes the solver's constraints with ``len``.

    bubble.tl has no upper bound; bubble_for.tl has two.
    """
    spans = load_spans()
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        for op_id, name in enumerate(("bubble.tl", "bubble_for.tl")):
            code = tracer.run_op(op_id, "small", lambda: cli.main(
                ["check", str(ROOT / "corpus" / name), "--json"]
            ))
            assert code == 0, name
    finally:
        tracer.uninstall()
    capsys.readouterr()
    for name in ("safety1.unknowns", "safety1.edges", "safety1.uppers"):
        assert tracer.counts.get(name, 0) > 0, name
    totals = tracer.span_totals()
    assert "safety1.solve" in totals and totals["safety1.solve"][0] > 0
