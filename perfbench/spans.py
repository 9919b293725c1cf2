"""Spans and counters for the traced benchmark run.

The tracer replaces public functions and methods of the tierlang modules
with wrappers for the duration of the traced passes and puts the originals
back afterwards; nothing in the package itself is instrumented.

* Phases become spans: name, start, end, parent span and the op they belong
  to.  A span's self time is its duration minus the time of the spans and
  counted calls directly inside it.
* Per-step callees (operator application, monitor observation, shortlex
  comparison, oracle calls) are aggregated into counters holding the number
  of calls, total time and self time, so the trace stays bounded.
* Recursive functions are wrapped at their outermost call only: the wrapper
  puts the original back while the call runs, so the recursion adds no
  frames and the recursion limit is met at the same depth as untraced.
* A boundary the program no longer has is skipped, and its metrics read 0.
"""

from __future__ import annotations

import json
import sys
import time

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        # (span id, name, op id, parent span id, start, end, self time)
        self.spans: list = []
        self.counters: dict = {}  # name -> [calls, total s, self s]
        self.counts: dict = {}  # name -> number read off program objects
        self.by_kind: dict = {}  # op kind -> [interp1 steps, interp1 seconds]
        self.max_store_size = 0
        self.op = None
        self.kind = None
        self._open = None  # innermost open span id
        self._stack: list = [[0.0]]  # per open frame: time of direct children
        self._undo: list = []

    # -- installation

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    @staticmethod
    def _missing(owner, attr) -> bool:
        return not callable(getattr(owner, attr, None))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def add(self, name: str, n):
        self.counts[name] = self.counts.get(name, 0) + n

    # -- spans

    def span(self, owner, attr, name, after=None, recursive=False):
        """Record each call of owner.attr as a span called ``name``.

        ``after(args, result, seconds)`` runs when the call ends, also when
        it raises (result is then None), to read sizes off the arguments.
        """
        if self._missing(owner, attr):
            return
        fn = getattr(owner, attr)
        tracer = self
        stack = self._stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            parent = tracer._open
            sid = len(spans)
            spans.append(None)
            tracer._open = sid
            frame = [0.0]
            stack.append(frame)
            if recursive:
                setattr(owner, attr, fn)
            result = None
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = _perf()
                if recursive:
                    setattr(owner, attr, wrapper)
                stack.pop()
                stack[-1][0] += t1 - t0
                tracer._open = parent
                spans[sid] = (sid, name, tracer.op, parent, t0, t1, t1 - t0 - frame[0])
                if after is not None:
                    after(args, result, t1 - t0)

        self._patch(owner, attr, wrapper)

    # -- aggregated counters

    def counter(self, owner, attr, name, key=None):
        """Aggregate calls of owner.attr under ``name`` (or ``key(args)``)."""
        if self._missing(owner, attr):
            return
        fn = getattr(owner, attr)
        counters = self.counters
        stack = self._stack
        fixed = counters.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args):
            agg = fixed if key is None else counters.setdefault(key(args), [0, 0.0, 0.0])
            frame = [0.0]
            stack.append(frame)
            t0 = _perf()
            try:
                return fn(*args)
            finally:
                d = _perf() - t0
                stack.pop()
                stack[-1][0] += d
                agg[0] += 1
                agg[1] += d
                agg[2] += d - frame[0]

        self._patch(owner, attr, wrapper)

    def call_count(self, owners, attr, name, recursive=False):
        """Count calls of a function made from outside the function itself.

        ``owners`` are the defining module, then modules that may import the
        name; those binding the same function get the same wrapper.  A
        recursive plain function (``recursive=True``) runs with the original
        restored in its defining module; a recursive generator cannot, so its
        own calls are told apart by the caller's code object.
        """
        self.counts.setdefault(name, 0)
        home = owners[0]
        if self._missing(home, attr):
            return
        fn = getattr(home, attr)
        owners = [m for m in owners if getattr(m, attr, None) is fn]
        code = fn.__code__
        tracer = self

        if recursive:
            def wrapper(*args):
                tracer.counts[name] += 1
                setattr(home, attr, fn)
                try:
                    return fn(*args)
                finally:
                    setattr(home, attr, wrapper)
        else:
            def wrapper(*args):
                if sys._getframe(1).f_code is not code:
                    tracer.counts[name] += 1
                return fn(*args)

        for owner in owners:
            self._patch(owner, attr, wrapper)

    # -- ops

    def run_op(self, op_id, kind, call):
        """Run ``call()`` inside an ``op`` span; returns its result."""
        self.op, self.kind = op_id, kind
        sid = len(self.spans)
        self.spans.append(None)
        self._open = sid
        frame = [0.0]
        self._stack.append(frame)
        t0 = _perf()
        try:
            return call()
        finally:
            t1 = _perf()
            self._stack.pop()
            self._open = None
            self.spans[sid] = (sid, "op", op_id, None, t0, t1, t1 - t0 - frame[0])
            self.op = self.kind = None

    # -- summaries

    def span_totals(self):
        """name -> [total s, self s] over all recorded spans."""
        out: dict = {}
        for _, name, _, _, t0, t1, self_s in self.spans:
            agg = out.setdefault(name, [0.0, 0.0])
            agg[0] += t1 - t0
            agg[1] += self_s
        return out

    def layer_self_times(self):
        """Layer (module) name -> self time of its spans and counters."""
        out: dict = {}
        for name, (_, self_s) in self.span_totals().items():
            layer = name.split(".")[0]
            out[layer] = out.get(layer, 0.0) + self_s
        for name, (_, _, self_s) in self.counters.items():
            layer = name.split(".")[0]
            out[layer] = out.get(layer, 0.0) + self_s
        return out

    def write(self, path, meta: dict):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    **meta,
                    "span_fields": ["id", "name", "op", "parent", "start", "end", "self"],
                    "spans": self.spans,
                    "counter_fields": ["calls", "total", "self"],
                    "counters": self.counters,
                    "counts": self.counts,
                },
                fh,
            )


def install(tracer: Tracer):
    """Wrap the tierlang layer boundaries named in perfbench/README.md."""
    from tierlang import (
        cli, genprog, interp1, opreg, parser, safety1, secondorder, syntax, words,
    )

    def tokens(args, result, seconds):
        if result is not None:
            tracer.add("parser.tokens", len(result))

    def constraints(args, result, seconds):
        cs = args[0]
        tracer.add("safety1.unknowns", len(cs.unknowns))
        tracer.add("safety1.edges", len(cs.edges))
        tracer.add("safety1.uppers", len(cs.uppers))

    def interp1_run(args, result, seconds):
        stats = args[0].stats
        tracer.add("interp1.steps", stats.steps)
        tracer.max_store_size = max(tracer.max_store_size, stats.max_store_size)
        agg = tracer.by_kind.setdefault(tracer.kind, [0, 0.0])
        agg[0] += stats.steps
        agg[1] += seconds

    def interp2_run(args, result, seconds):
        tracer.add("secondorder.obk_events", len(args[0].stats.obk_events))

    tracer.span(cli, "main", "cli.main")
    tracer.span(parser, "parse", "parser.parse")
    tracer.span(parser, "tokenize", "parser.tokenize", after=tokens)
    tracer.span(parser, "desugar_for", "parser.desugar", recursive=True)
    tracer.span(safety1, "infer_safety", "safety1.infer")
    tracer.span(safety1.LevelAnalysis, "gen_stmt", "safety1.gen", recursive=True)
    tracer.span(safety1.Constraints, "solve", "safety1.solve", after=constraints)
    tracer.span(safety1, "check_for_program", "safety1.forcheck")
    tracer.span(secondorder, "check_guarded", "secondorder.guarded")
    tracer.span(secondorder, "simple_typecheck", "secondorder.simple")
    tracer.span(secondorder, "infer_procedure_levels", "secondorder.levels")
    tracer.span(secondorder.Interp2, "run", "secondorder.eval", after=interp2_run)
    tracer.span(interp1.Interp, "run", "interp1.run", after=interp1_run)

    tracer.counter(opreg.Registry, "apply", "opreg.apply")
    tracer.counter(opreg, "builtin_registry", "opreg.registry_build")
    tracer.counter(interp1.LoopMonitorState, "observe", "interp1.monitor_observe")
    tracer.counter(words, "shortlex_compare", "words.shortlex_compare")
    tracer.counter(secondorder.Interp2, "apply_oracle", "secondorder.oracle_call")
    tracer.counter(
        secondorder.Interp2, "call_external", "secondorder.external_call",
        key=lambda args: (
            "secondorder.external_call.prog" if args[1].program is not None
            else "secondorder.external_call"
        ),
    )

    importers = [syntax, parser, safety1, secondorder, genprog]
    tracer.call_count(importers, "iter_stmts", "syntax.iter_stmts_calls")
    tracer.call_count(importers, "seq_chain", "syntax.seq_chain_calls", recursive=True)

