#!/usr/bin/env python3
"""tierlang benchmark: one closed-loop client calling the CLI in process.

    python3 perfbench/run.py --workload fo-run --seed 1 --seconds 10 --trace 0

Run from a source checkout.  Each op is one ``tierlang.cli.main([...,
"--json"])`` call with stdout captured, timed on its own; the next op
starts when the previous one ends.  A run replays whole passes over the
workload's seeded op pool until ``--seconds`` have passed, then checks
every report against the references and, for the default seed, against
the committed exact-count gate.  The last line of stdout is a JSON
object: end-to-end metrics with ``--trace 0``, per-layer metrics from a
wrapped run with ``--trace 1``.  See perfbench/README.md.

``--record-gate`` rewrites perfbench/gate/<workload>.json from the default
seed; use it only when a change to the cost model is intended.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_SEED = 1
SETUP_SAMPLES = 9
PERCENTILE_HALF_WIDTH = 4

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, "src")
import tierlang.cli
tierlang.cli.opreg.builtin_registry()
print(time.perf_counter() - t0)
"""


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# Running ops


class Outcome:
    """Every execution of one op: times, exit codes, report digests."""

    def __init__(self):
        self.times: list = []
        self.codes: list = []
        self.digests: list = []
        self.errors: list = []  # exception text per execution, or None
        self.text = None  # the first readable report, kept unparsed until checked
        self.problem = None  # why the op is wrong, if it is

    @property
    def report(self):
        return None if self.text is None else json.loads(self.text)

    def failed_runs(self) -> list:
        return [self.problem is not None or e is not None for e in self.errors]


def deterministic_fields(report: dict) -> dict:
    """The fields a speed change must never alter (ROADMAP item 1)."""
    fields = {"exit_code": report["exit_code"], "verdicts": report["verdicts"],
              "result": report["result"]}
    if report["stats"] is not None:
        fields["stats"] = report["stats"]
    if report["stop"] is not None:
        fields["stop"] = {k: v for k, v in report["stop"].items() if k != "message"}
    for key in ("gamma", "loop_levels", "omega", "program_type"):
        if report.get(key) is not None:
            fields[key] = compact(report[key])
    return fields


def compact(value):
    text = json.dumps(value, sort_keys=True)
    if len(text) <= 240:
        return value
    return {"sha256": hashlib.sha256(text.encode()).hexdigest()[:16], "entries": len(value)}


def digest(fields: dict) -> str:
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()


def run_op(cli, op, outcome: Outcome, tracer=None):
    out, err = io.StringIO(), io.StringIO()
    argv = op.argv + ["--json"]
    error = code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.run_op(op.id, op.kind, lambda: cli.main(argv))
        except (Exception, SystemExit) as exc:  # an op that raises is a failed op
            error = f"{type(exc).__name__}: {str(exc)[:160]}"
        t1 = time.perf_counter()
    outcome.times.append(t1 - t0)
    outcome.codes.append(code)
    outcome.errors.append(error)
    text = out.getvalue()
    if tracer is not None:
        tracer.add("cli.report_bytes", len(text.encode()))
    fields = None
    if error is None:
        try:
            fields = digest(deterministic_fields(json.loads(text)))
            if outcome.text is None:
                outcome.text = text
        except (ValueError, KeyError, TypeError) as exc:
            outcome.problem = outcome.problem or f"unreadable report: {exc}"
    outcome.digests.append(fields)


def run_passes(cli, ops, outcomes, seconds: float, tracer=None, between=None) -> tuple:
    """Whole passes over ``ops`` until ``seconds`` have passed; (passes, op s).

    ``between()`` runs after every pass.
    """
    passes, op_time = 0, 0.0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for op in ops:
            run_op(cli, op, outcomes[op.id], tracer)
            op_time += outcomes[op.id].times[-1]
        passes += 1
        if between is not None:
            between()
    return passes, op_time


def make_pool(workload: str, seed: int, workdir: Path) -> list:
    """The seeded op pool, generated in a child process.

    Generating ``check`` inputs parses and walks programs deeper than any op
    does; a child keeps that out of this process's ``ru_maxrss``.
    """
    from workloads import Op

    subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--make-pool"], cwd=ROOT, timeout=120, check=True,
    )
    entries = json.loads((workdir / "pool.json").read_text(encoding="utf-8"))
    return [Op(**entry) for entry in entries]


def rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup_once() -> float:
    """Seconds for a fresh interpreter to import the CLI and build the registry."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], cwd=ROOT, capture_output=True,
        text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Checking


def verify(cli, workload: str, ops, outcomes, gate: dict | None) -> list:
    """Set ``problem`` on every wrong op; returns the gate/consistency errors."""
    import jsonschema

    from workloads import (
        CheckReferences, append1_twin, check_fo_run, expected_failure, same_outcome,
    )

    schema = json.loads((ROOT / "report.schema.json").read_text(encoding="utf-8"))
    validator = jsonschema.Draft202012Validator(schema)
    refs = CheckReferences()
    problems = []
    for op in ops:
        outcome = outcomes[op.id]
        report = outcome.report
        unexpected = sorted({e for e in outcome.errors
                             if e is not None and not expected_failure(op, e)})
        if unexpected:
            outcome.problem = outcome.problem or f"raised {unexpected[0]}"
        if report is None:
            if outcome.problem:  # it raised, or printed something unreadable
                problems.append(f"op {op.id} ({op.kind}, size {op.size}): {outcome.problem}")
            continue
        checks = [outcome.problem]
        errors = sorted(validator.iter_errors(report), key=str)
        if errors:
            checks.append(f"schema: {errors[0].message}")
        for code in outcome.codes:
            if code is not None and code != cli.exit_code_for(report):
                checks.append(f"exit code {code}, report says {cli.exit_code_for(report)}")
                break
        if len(set(outcome.digests)) > 1:
            checks.append("executions of one op disagree on deterministic fields")
        if workload == "fo-run":
            checks.append(check_fo_run(op, report))
        elif workload == "check":
            checks.append(refs.check(op, report))
        else:
            twin = append1_twin(op)
            if twin is not None:
                twin_outcome = Outcome()
                run_op(cli, dataclasses.replace(op, argv=twin), twin_outcome)
                if twin_outcome.report is None:
                    checks.append(f"builtin:append1 twin failed: {twin_outcome.errors}")
                else:
                    checks.append(same_outcome(report, twin_outcome.report))
        checks = [c for c in checks if c]
        if checks:
            outcome.problem = "; ".join(checks)
            problems.append(f"op {op.id} ({op.kind}): {outcome.problem}")
    if gate is not None:
        problems += check_gate(ops, outcomes, gate)
    return problems


def check_gate(ops, outcomes, gate: dict) -> list:
    expected = {entry["id"]: entry for entry in gate["ops"]}
    problems = []
    if len(expected) != len(ops):
        problems.append(f"gate: {len(expected)} ops recorded, pool has {len(ops)}")
    for op in ops:
        entry = expected.get(op.id)
        if entry is None:
            continue
        if entry["input"] != op.digest:
            problems.append(f"gate: op {op.id} ({op.kind}) has different inputs than recorded")
            continue
        report = outcomes[op.id].report
        if entry["fields"] is None:
            continue  # it raised when recorded; the references check it now
        if report is None:
            why = next((e for e in outcomes[op.id].errors if e), "an unreadable report")
            problems.append(f"gate: op {op.id} ({op.kind}) gave a report when recorded "
                            f"and gives none now: {why}")
            continue
        got = json.loads(json.dumps(deterministic_fields(report)))
        if got != entry["fields"]:
            diff = sorted(k for k in set(got) | set(entry["fields"])
                          if got.get(k) != entry["fields"].get(k))
            problems.append(f"gate: op {op.id} ({op.kind}) drifted in {diff}: "
                            f"{ {k: got.get(k) for k in diff} } != "
                            f"{ {k: entry['fields'].get(k) for k in diff} }")
    return problems


def gate_path(workload: str) -> Path:
    return BENCH / "gate" / f"{workload}.json"


# ---------------------------------------------------------------------------
# Metrics


def percentile(values: list, q: float) -> float:
    """The mean of the order statistics within four ranks of the q-th.

    Op times of neighbouring ranks can lie a third apart on ``check``, and one
    op's best time can miss the machine's fast stretches; averaging a few
    ranks (a kernel quantile estimate) keeps one such op from moving the
    percentile to the next rank.  A failure (+inf) in the window makes it +inf.
    """
    ordered = sorted(values)
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    window = ordered[max(0, rank - PERCENTILE_HALF_WIDTH):rank + PERCENTILE_HALF_WIDTH + 1]
    return sum(window) / len(window)


def end_to_end(ops, outcomes, setup_s: float, rss_mib: float) -> tuple:
    """Metrics over the pool, each op timed by its fastest execution.

    On a shared machine the speed of ten-second windows varies by a fifth,
    their fastest stretches by far less; the best of an op's executions,
    which are spread over the whole run, is therefore its time.  An op with
    a failed execution counts as +inf.
    """
    best, stmts_ok, steps, total = [], 0, 0, 0.0
    attempted = failed = 0
    for op in ops:
        outcome = outcomes[op.id]
        bad = outcome.failed_runs()
        attempted += len(bad)
        failed += sum(bad)
        total += min(outcome.times)
        best.append(math.inf if any(bad) else min(outcome.times))
        if not any(bad):
            stmts_ok += op.stmts
            steps += ((outcome.report or {}).get("stats") or {}).get("steps", 0)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (percentile(best, 0.5) * 1e3, "ms"),
        "op_p90_ms": (percentile(best, 0.9) * 1e3, "ms"),
        "kstmts_per_s": (stmts_ok / total / 1e3, "kstmts/s"),
        "peak_rss_mib": (rss_mib, "MiB"),
    }
    extra = {
        "msteps_per_s": (steps / total / 1e6, "Msteps/s"),
        "fail_ratio": (failed / attempted, "ratio"),
    }
    return metrics, extra, attempted, failed


def per_layer(tracer, passes: int, overhead: float) -> dict:
    spans = tracer.span_totals()
    counters = tracer.counters
    counts = tracer.counts
    selfs = tracer.layer_self_times()

    def span_s(name, which=0):
        return spans.get(name, [0.0, 0.0])[which] / passes

    def calls(name):
        return counters.get(name, [0, 0.0, 0.0])[0] / passes

    def total_s(name):
        return counters.get(name, [0, 0.0, 0.0])[1] / passes

    def count(name):
        return counts.get(name, 0) / passes

    def rate(num, den, scale):
        return num / den / scale if den else 0.0

    def kinds_rate(kinds):
        steps = sum(tracer.by_kind.get(k, [0, 0.0])[0] for k in kinds)
        secs = sum(tracer.by_kind.get(k, [0, 0.0])[1] for k in kinds)
        return rate(steps, secs, 1e6)

    m = {
        "parser.tokenize_s": (span_s("parser.tokenize"), "s"),
        "parser.parse_s": (span_s("parser.parse"), "s"),
        "parser.desugar_s": (span_s("parser.desugar"), "s"),
        "parser.tokens": (count("parser.tokens"), "count"),
        "parser.ktokens_per_s": (
            rate(count("parser.tokens"), span_s("parser.parse"), 1e3), "ktokens/s"),
        "syntax.iter_stmts_calls": (count("syntax.iter_stmts_calls"), "count"),
        "syntax.seq_chain_calls": (count("syntax.seq_chain_calls"), "count"),
        "safety1.gen_s": (span_s("safety1.gen"), "s"),
        "safety1.solve_s": (span_s("safety1.solve"), "s"),
        "safety1.build_s": (span_s("safety1.infer", 1), "s"),
        "safety1.forcheck_s": (span_s("safety1.forcheck"), "s"),
        "safety1.unknowns": (count("safety1.unknowns"), "count"),
        "safety1.edges": (count("safety1.edges"), "count"),
        "safety1.uppers": (count("safety1.uppers"), "count"),
        "safety1.self_s": (selfs.get("safety1", 0.0) / passes, "s"),
        "secondorder.guarded_s": (span_s("secondorder.guarded"), "s"),
        "secondorder.simple_s": (span_s("secondorder.simple"), "s"),
        "secondorder.levels_s": (span_s("secondorder.levels"), "s"),
        "secondorder.eval_s": (span_s("secondorder.eval"), "s"),
        "secondorder.oracle_calls": (calls("secondorder.oracle_call"), "count"),
        "secondorder.external_calls": (
            calls("secondorder.external_call") + calls("secondorder.external_call.prog"),
            "count"),
        "secondorder.prog_oracle_s": (total_s("secondorder.external_call.prog"), "s"),
        "secondorder.obk_events": (count("secondorder.obk_events"), "count"),
        "secondorder.self_s": (selfs.get("secondorder", 0.0) / passes, "s"),
        "interp1.run_s": (span_s("interp1.run"), "s"),
        "interp1.steps": (count("interp1.steps"), "count"),
        "interp1.msteps_per_s": (
            rate(count("interp1.steps"), span_s("interp1.run"), 1e6), "Msteps/s"),
        "interp1.grow_msteps_per_s": (kinds_rate(["inc_loop"]), "Msteps/s"),
        "interp1.sort_msteps_per_s": (kinds_rate(["bubble", "bubble_for"]), "Msteps/s"),
        "interp1.monitor_observe_calls": (calls("interp1.monitor_observe"), "count"),
        "interp1.monitor_s": (total_s("interp1.monitor_observe"), "s"),
        "interp1.max_store_size": (tracer.max_store_size, "symbols"),
        "interp1.self_s": (selfs.get("interp1", 0.0) / passes, "s"),
        "opreg.apply_calls": (calls("opreg.apply"), "count"),
        "opreg.apply_s": (total_s("opreg.apply"), "s"),
        "opreg.registry_builds": (calls("opreg.registry_build"), "count"),
        "opreg.self_s": (selfs.get("opreg", 0.0) / passes, "s"),
        "words.shortlex_calls": (calls("words.shortlex_compare"), "count"),
        "words.shortlex_s": (total_s("words.shortlex_compare"), "s"),
        "cli.main_s": (span_s("cli.main", 1), "s"),
        "cli.report_bytes": (count("cli.report_bytes"), "bytes"),
        "trace.overhead": (overhead, "ratio"),
    }
    return m


# ---------------------------------------------------------------------------
# Main


def load_tierlang():
    """Import tierlang from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "tierlang" / "cli.py").is_file() or not (ROOT / "corpus").is_dir():
        return None
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import tierlang.cli

    if Path(tierlang.cli.__file__).resolve().parent != (src / "tierlang").resolve():
        return None
    return tierlang.cli


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["fo-run", "check", "so-oracle"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record-gate", action="store_true")
    ap.add_argument("--make-pool", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    cli = load_tierlang()
    if cli is None:
        return fail(f"no tierlang source checkout at {ROOT}")
    os.chdir(ROOT)
    os.environ.pop(cli.ENV_BUDGET, None)  # the default budget is part of the workload
    import spans
    import workloads

    if args.record_gate:
        args.seed = DEFAULT_SEED
    workdir = BENCH / "out" / f"{args.workload}-s{args.seed}"
    if args.make_pool:
        ops = workloads.POOLS[args.workload](random.Random(args.seed), workdir)
        (workdir / "pool.json").write_text(
            json.dumps([dataclasses.asdict(op) for op in ops]), encoding="utf-8")
        return 0
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ops = make_pool(args.workload, args.seed, workdir)
    if len(ops) < 100:
        return fail("a pool needs at least 100 ops for a p90 with ten samples beyond it")
    outcomes = {op.id: Outcome() for op in ops}
    gate = None
    if args.seed == DEFAULT_SEED and not args.record_gate:
        if not gate_path(args.workload).is_file():
            return fail(f"missing {gate_path(args.workload)}; run with --record-gate")
        gate = json.loads(gate_path(args.workload).read_text(encoding="utf-8"))

    if args.record_gate:
        run_passes(cli, ops, outcomes, 0)
        problems = verify(cli, args.workload, ops, outcomes, None)
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return fail("references fail; gate not recorded")
        entries = [{"id": op.id, "kind": op.kind, "input": op.digest,
                    "fields": outcomes[op.id].report
                    and deterministic_fields(outcomes[op.id].report)} for op in ops]
        gate_path(args.workload).parent.mkdir(exist_ok=True)
        lines = ",\n".join(json.dumps(e, sort_keys=True) for e in entries)
        gate_path(args.workload).write_text(
            f'{{"workload": "{args.workload}", "seed": {DEFAULT_SEED}, "ops": [\n'
            f"{lines}\n]}}\n", encoding="utf-8")
        print(f"recorded {len(entries)} ops in {gate_path(args.workload)}")
        return 0

    print(f"workload {args.workload}, seed {args.seed}: pool of {len(ops)} ops")
    if args.trace:
        return traced_run(cli, spans, args, ops, outcomes, gate, workdir)
    print(f"peak_rss_mib before the timed passes {rss_mib():.6g} MiB")

    # Set-up is sampled between passes, so that its median spans the run.
    setup_once()  # may compile bytecode
    setups: list = []
    gc.collect()
    passes, _ = run_passes(cli, ops, outcomes, args.seconds,
                           between=lambda: setups.append(setup_once()))
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_once())
    setup_s = statistics.median(setups)
    peak_rss = rss_mib()
    problems = verify(cli, args.workload, ops, outcomes, gate)
    metrics, extra, attempted, failed = end_to_end(ops, outcomes, setup_s, peak_rss)
    print(f"{passes} pass(es): {attempted} executions of {len(ops)} ops")
    for name, (value, unit) in {**metrics, **extra}.items():
        if name != "msteps_per_s" or args.workload != "check":
            print(f"{name} {value:.6g} {unit}")
    return finish(ops, outcomes, problems, metrics, attempted, failed)


def traced_run(cli, spans, args, ops, outcomes, gate, workdir) -> int:
    half = args.seconds / 2
    base_passes, base_time = run_passes(cli, ops, outcomes, half)
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        passes, traced_time = run_passes(cli, ops, outcomes, half, tracer)
    finally:
        tracer.uninstall()
    overhead = (traced_time / passes) / (base_time / base_passes)
    problems = verify(cli, args.workload, ops, outcomes, gate)
    metrics = per_layer(tracer, passes, overhead)
    tracer.write(workdir / "trace.json", {
        "workload": args.workload, "seed": args.seed, "passes": passes,
        "ops": {op.id: op.kind for op in ops},
    })
    print(f"{base_passes} untraced and {passes} traced pass(es); trace in "
          f"{(workdir / 'trace.json').relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    attempted = sum(len(o.times) for o in outcomes.values())
    failed = sum(sum(o.failed_runs()) for o in outcomes.values())
    return finish(ops, outcomes, problems, metrics, attempted, failed)


def finish(ops, outcomes, problems, metrics, attempted, failed) -> int:
    for op in ops:
        outcome = outcomes[op.id]
        errors = sorted({e for e in outcome.errors if e})
        if errors:
            print(f"failed op {op.id} ({op.kind}, size {op.size}): {errors[0]}")
    for line in problems:
        print(f"WRONG {line}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
