"""Seeded op pools for the benchmark workloads, and their reference checks.

An op is one ``tierlang`` command line.  A pool is a fixed list of ops made
from the seed alone; a run replays whole passes over its pool.  Input sizes
sit on a log-uniform grid, one per equal stratum, jittered by the seed; the
features that change an op's cost (monitor on or off, .tl2 form, unsafe
splice) are dealt out by size rank and the number of ops of each kind is
fixed.  Two seeds therefore give different inputs with the same cost
profile, which keeps percentiles comparable between seeds.

References are independent of the code under test where one exists (a
Python sort, a Python loop, brute-force safety, the derivation checker,
construction) and are evaluated outside the timed region.
"""

from __future__ import annotations

import hashlib
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from tierlang import genprog, parser, safety1, secondorder, syntax

BENCH = Path(__file__).resolve().parent
APPEND1 = "perfbench/append1.tl"
MONITOR = ([], ["--monitor"])

# Corpus bodies concatenated into large `check` programs; inc_loop is only
# spliced in, once, to make a program unsafe.
LARGE_MIX = ("bubble", "exp1", "bubble_for", "exp2")
# 28 large programs of 1 to 432 bodies, 3.5 top-level statements per body.
# Today's recursion limit falls near 280 bodies, on the boundary of the two
# top strata, so the same two programs lie beyond it for every seed.  Cost
# then grows with size rank, which keeps the percentiles from jumping when
# two ops trade places: a .tl2 program, which takes about twice as long to
# check, gets half the bodies, and an all-for one 7/8 of them (4 top-level
# statements per body).
LARGE_PROGRAMS = 28
LARGE_MAX_BODIES = 432
DEEP_LIMIT = 50_000  # recursion limit for the benchmark's own tree walks
# Today `check` raises RecursionError on programs past about 1000 top-level
# statements; the pools put none between 910 and 1060.  That error on a
# program at least this long is the one failure a run expects.
KNOWN_DEEP_STMTS = 1000


@dataclass
class Op:
    id: int
    kind: str
    argv: list
    stmts: int  # source statements of the program
    size: int  # the op's size parameter, listed with failures
    ref: dict = field(default_factory=dict)
    digest: str = ""  # argv and input text, so the gate notices changed inputs


@contextmanager
def deep_recursion():
    """Let the benchmark walk programs deeper than the interpreter default."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, DEEP_LIMIT))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def strata(rng, n: int, lo: float, hi: float) -> list:
    """n integers on a log-uniform grid over [lo, hi], ascending.

    One per equal stratum, at its middle moved by up to a tenth of the
    stratum either way.
    """
    return [
        round(lo * (hi / lo) ** ((i + 0.5 + (rng.random() - 0.5) / 5) / n))
        for i in range(n)
    ]


def bits(rng, n: int, alphabet: str = "01") -> str:
    return "".join(rng.choice(alphabet) for _ in range(n))


def count_stmts(body) -> int:
    return sum(1 for s in syntax.iter_stmts(body) if not isinstance(s, syntax.Seq))


def source_stmts(text: str) -> int:
    """Statements of a program as written, for loops not yet desugared."""
    program = parser.parse(text, desugar=False)
    if isinstance(program, syntax.Program1):
        return count_stmts(program.body)
    return sum(count_stmts(p.body) for p in program.procedures)


class Pool:
    def __init__(self, rng, workdir: Path):
        self.rng = rng
        self.workdir = workdir
        self.ops: list = []

    def add(self, kind, argv, stmts, size, **ref):
        self.ops.append(Op(0, kind, argv, stmts, size, ref))

    def write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return path.relative_to(BENCH.parent).as_posix()

    def finish(self) -> list:
        self.rng.shuffle(self.ops)
        for i, op in enumerate(self.ops):
            op.id = i
            h = hashlib.sha256("\0".join(op.argv).encode())
            for arg in op.argv:
                if arg.endswith((".tl", ".tl2")):
                    h.update((BENCH.parent / arg.split("prog:")[-1]).read_bytes())
            op.digest = h.hexdigest()[:16]
        return self.ops


def corpus_stmts(name: str) -> int:
    return source_stmts((BENCH.parent / "corpus" / name).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# fo-run


def exp1_result(n: int) -> str:
    """exp1.tl on x = 1^n: y starts at 1 and gains min(|y|, |x|) per pass."""
    y = 1
    for x in range(n, 0, -1):
        y += min(y, x)
    return "1" * y


def fo_run_pool(rng, workdir: Path) -> list:
    pool = Pool(rng, workdir)
    for kind in ("bubble", "bubble_for"):
        path = f"corpus/{kind}.tl"
        stmts = corpus_stmts(f"{kind}.tl")
        for i, n in enumerate(strata(rng, 24, 4, 44)):
            w = bits(rng, n)
            pool.add(kind, ["run", path, "--input", f"list={w}"] + MONITOR[i % 2],
                     stmts, n, result="".join(sorted(w)))
    stmts = corpus_stmts("exp1.tl")
    for i, n in enumerate(strata(rng, 24, 4, 64)):
        argv = ["run", "corpus/exp1.tl", "--input", f"x=u{n}",
                "--input", f"y=u{rng.randint(0, 8)}"]
        pool.add("exp1", argv + MONITOR[i % 2], stmts, n, result=exp1_result(n))
    stmts = corpus_stmts("inc_loop.tl")
    for i, budget in enumerate(strata(rng, 24, 1500, 10000)):
        argv = ["run", "corpus/inc_loop.tl", "--input", f"x=u{rng.randint(1, 8)}",
                "--max-steps", str(budget)]
        pool.add("inc_loop", argv + MONITOR[i % 2], stmts, budget, budget=budget)
    stmts = corpus_stmts("exp2.tl")
    for monitor, (lo, hi) in ((False, (4, 12)), (True, (4, 64))):
        for n in strata(rng, 12, lo, hi):
            y = "1" + bits(rng, n - 1)
            pool.add("exp2", ["run", "corpus/exp2.tl", "--input", f"y={y}"]
                     + MONITOR[monitor], stmts, n, monitor=monitor)
    return pool.finish()


def check_fo_run(op: Op, report: dict) -> str | None:
    stop = report["stop"]
    if op.kind in ("bubble", "bubble_for", "exp1"):
        if stop is not None or report["result"] != op.ref["result"]:
            return f"result {report['result']!r} (stop {stop}), expected {op.ref['result']!r}"
    elif op.kind == "inc_loop":
        steps = report["stats"]["steps"] if report["stats"] else None
        if stop is None or stop["kind"] != "budget-exhausted" or steps != op.ref["budget"] + 1:
            return f"expected the budget of {op.ref['budget']} to run out, got {stop}"
    elif op.kind == "exp2":
        if op.ref["monitor"]:
            if (stop or {}).get("kind") != "aperiodicity-violation" or stop["iteration"] != 2:
                return f"expected an aperiodicity stop at guard evaluation 2, got {stop}"
        elif stop is not None or report["result"] != "":
            return f"expected a countdown to the empty word, got {report['result']!r}"
    return None


# ---------------------------------------------------------------------------
# check


_IDENT = re.compile(r"[a-z][A-Za-z0-9_]*")


class Bodies:
    """Corpus program bodies whose variables can be renamed apart."""

    def __init__(self):
        self.parts = {}
        for name in LARGE_MIX + ("inc_loop",):
            text = (BENCH.parent / "corpus" / f"{name}.tl").read_text(encoding="utf-8")
            text = "\n".join(
                line for line in text.splitlines() if not line.lstrip().startswith("//")
            )
            program = parser.parse(text, desugar=False)
            m = re.search(r"\{(.*)return\s+\w+\s*\}\s*$", text, re.S)
            self.parts[name] = (
                program.params,
                m.group(1).strip().rstrip(";"),
                program.ret,
                syntax.program_vars(program),
                count_stmts(program.body),
            )

    def program(self, names) -> tuple:
        """Concatenation of the named bodies; returns (source, statements)."""
        params, parts, stmts = [], [], 0
        for k, name in enumerate(names):
            ps, body, ret, names_k, n = self.parts[name]
            params += [f"{p}_{k}" for p in ps]
            parts.append(_IDENT.sub(
                lambda m: f"{m.group(0)}_{k}" if m.group(0) in names_k else m.group(0),
                body,
            ))
            last = f"{ret}_{k}"
            stmts += n
        text = f"prog({', '.join(params)}){{\n" + ";\n".join(parts)
        return text + f"\n  return {last}\n}}\n", stmts


def check_pool(rng, workdir: Path) -> list:
    pool = Pool(rng, workdir)
    for i in range(64):
        program = genprog.random_program(rng)
        text = parser.pretty_print(program)
        stmts = count_stmts(program.body)
        ref = {"source": text}
        if i % 4 == 3:
            tl2 = parser.pretty_print(secondorder.embed_program1(parser.parse(text)))
            pool.add("small_tl2", ["check", pool.write(f"s{i}.tl2", tl2)], stmts, stmts, **ref)
            continue
        path = pool.write(f"s{i}.tl", text)
        pool.add("small", ["check", path], stmts, stmts, **ref)
        # genprog writes no for loops, so a program is all-for iff loop-free.
        all_for = not any(isinstance(s, syntax.While) for s in syntax.iter_stmts(program.body))
        pool.add("forcheck", ["forcheck", path], stmts, stmts, all_for=all_for, **ref)

    bodies = Bodies()
    for j, k in enumerate(strata(rng, LARGE_PROGRAMS, 1, LARGE_MAX_BODIES)):
        all_for, unsafe, tl2 = j % 5 == 0, j % 3 == 1, j % 4 == 0
        k = max(1, round(k / 2)) if tl2 else k
        if all_for:
            names = ["bubble_for"] * max(1, round(k * 7 / 8))
        else:
            names = [LARGE_MIX[i % 4] for i in range(k)]
        rng.shuffle(names)
        if unsafe:
            names.insert(rng.randint(0, len(names)), "inc_loop")
        text, stmts = bodies.program(names)
        ref = {"safe": not unsafe, "all_for": all_for and not unsafe, "source": text}
        with deep_recursion():
            program = parser.parse(text)
            top = len(syntax.seq_chain(program.body))
            if tl2:
                text = parser.pretty_print(secondorder.embed_program1(program))
        if tl2:
            pool.add("large_tl2", ["check", pool.write(f"l{j}.tl2", text)], stmts, top, **ref)
            continue
        path = pool.write(f"l{j}.tl", text)
        pool.add("large", ["check", path], stmts, top, **ref)
        if all_for and not unsafe:
            pool.add("forcheck", ["forcheck", path], stmts, top, **ref)
    return pool.finish()


def expected_failure(op: Op, error: str) -> bool:
    """Whether ``error`` is today's known failure: a deep program's RecursionError.

    Any other exception, on any op of any workload, makes the op wrong.
    """
    return (op.kind in ("large", "large_tl2", "forcheck")
            and op.size >= KNOWN_DEEP_STMTS and error.startswith("RecursionError:"))


class CheckReferences:
    """First-order verdicts: by construction, or by brute force (cached)."""

    def __init__(self):
        self.cache = {}

    def safe(self, op: Op) -> bool:
        if "safe" in op.ref:
            return op.ref["safe"]
        text = op.ref["source"]
        if text not in self.cache:
            self.cache[text] = safety1.brute_force_safe(parser.parse(text), 3)
        return self.cache[text]

    def check(self, op: Op, report: dict) -> str | None:
        expected = self.safe(op)
        verdicts = report["verdicts"]
        if op.kind == "forcheck":
            want = (op.ref["all_for"], expected if op.ref["all_for"] else None)
            if (verdicts["for_program"], verdicts["safety"]) != want:
                return f"forcheck verdicts {verdicts}, expected (all-for, safe) {want}"
            return None
        if verdicts["safety"] != expected:
            return f"safety verdict {verdicts['safety']}, expected {expected}"
        if expected and op.kind in ("small", "large"):
            with deep_recursion():
                program = parser.parse(op.ref["source"])
                result = safety1.infer_safety(program)
                if not safety1.check_derivation(program, result.gamma, result.derivation):
                    return "the derivation of a safe verdict does not re-check"
        return None


# ---------------------------------------------------------------------------
# so-oracle


def so_oracle_pool(rng, workdir: Path) -> list:
    pool = Pool(rng, workdir)
    stmts = corpus_stmts("I.tl2")
    const = "builtin:const:" + bits(rng, rng.randint(1, 6))
    oracles = {"append1": "builtin:append1", "double": "builtin:double",
               "bitflip": "builtin:bitflip", "const": const,
               "prog-bubble": "prog:corpus/bubble.tl", "prog-append1": "prog:" + APPEND1}
    for kind, oracle in oracles.items():
        # A prog:bubble call sorts its argument, so its cost grows with |v|
        # much faster than the others'; smaller words keep it from
        # outweighing the rest of the pool.
        hi = 24 if kind == "prog-bubble" else 48
        for i, m in enumerate(strata(rng, 20, 4, hi)):
            # |u| sets how long the answers that oracle calls sort are.
            argv = ["run", "corpus/I.tl2", "--oracle", f"F={oracle}",
                    "--input", f"u={bits(rng, 1 + i % 4)}",
                    "--input", f"v={bits(rng, m)}", "--input", f"w=u{max(2, m // 2)}"]
            pool.add(kind, argv + MONITOR[i % 2], stmts, m)
    return pool.finish()


def append1_twin(op: Op) -> list | None:
    """The same op with the builtin append-one oracle, for prog:append1 ops."""
    spec = "F=prog:" + APPEND1
    if spec not in op.argv:
        return None
    return [("F=builtin:append1" if a == spec else a) for a in op.argv]


def same_outcome(report: dict, twin: dict) -> str | None:
    keys = ("result", "exit_code")
    got = [report[k] for k in keys] + [(report["stop"] or {}).get("kind")]
    want = [twin[k] for k in keys] + [(twin["stop"] or {}).get("kind")]
    if got != want:
        return f"prog:append1 gave {got}, builtin:append1 gave {want}"
    return None


POOLS = {"fo-run": fo_run_pool, "check": check_pool, "so-oracle": so_oracle_pool}
