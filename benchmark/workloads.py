"""The three workloads: seeded op lists, generated inputs and the output oracle.

Every op is one CLI command line.  Nothing here imports `tmc_forge`: the
inputs and the expected outputs are built from the benchmark's own code and
from `golden.json`, so a change under test cannot change either.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN_PATH = BENCH_DIR / "golden.json"

RUN_FILE = "corpus/map_variants.tmc"
RUN_ENTRIES = ("map_direct", "map_acc", "map", "umap")
RUN_SIZE = 10_000
# Entries evaluated with deep host recursion.  tracemalloc walks the whole
# stack on every allocation, so the tracemalloc pass skips their
# evaluation span: at depth 10 001 it would take hours.
DEEP_KEYS = ("map_direct",)

# (corpus file, entry, argument specs) at the README's scale.
DIFF_PROGRAMS = (
    ("map", "map", ("fun:add1", "list:50")),
    ("umap", "umap", ("fun:add1", "list:50")),
    ("filter", "filter", ("fun:is_small", "list:50")),
    ("merge", "merge", ("sortedlist:20", "sortedlist:20")),
    ("flatten_mutual", "flatten", ("listof:10",)),
    ("map_tail", "map_tail", ("fun:bump", "cmmlike:30")),
    ("tree_map_annotated", "tree_map", ("fun:add1", "tree:6")),
    ("noisy_constr_args", "noisy", ("list:20",)),
)
DIFF_TRIALS = 100

# transform_large draws its programs from a fixed pool, so that every
# program a seed can select has a checked-in output digest.
POOL_SIZE = 64
PROGRAMS_PER_RUN = 8
# Corpus files copied into generated programs, and how many copies of each:
# 92 functions in all.  tree_map_ambiguous is left out because it is
# rejected by design.
UNIT_FILES = ("map", "map_variants", "filter", "merge", "umap",
              "flatten_mutual", "flatten_nested", "map_tail",
              "map_toplevel_call", "tree_map_annotated", "noisy_constr_args")
UNIT_COPIES = (4, 6, 4, 4, 4, 4, 4, 4, 4, 4, 4)
# Layers of the let/seq/match chain in each extra marked function.
CHAIN_DEPTHS = (50, 75, 100, 125, 150)

WORKLOADS = ("run_large", "diff_many", "transform_large")


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    key: str  # what the oracle checks against: entry, corpus file or pool index
    seed: int = 0  # the op's --seed, 0 for ops that take none

    @property
    def out(self) -> Path | None:
        """The file the op writes with --out, if any."""

        if "--out" not in self.argv:
            return None
        return Path(self.argv[self.argv.index("--out") + 1])


@dataclass(frozen=True)
class Outcome:
    rc: object  # exit code, or None when the op raised
    stdout: str
    stderr: str
    output_sha256: str = ""  # digest of the --out file, for transform ops


@dataclass
class Prepared:
    name: str
    cycle: list[Op]  # one cycle: each entry, corpus program or pool program once
    seeded: bool  # whether each op gets its own --seed

    def ops(self, cycle_index: int, seed: int) -> list[Op]:
        """The ops of one cycle, in a fixed order; each op of each cycle gets
        its own seed."""

        rng = random.Random(f"{self.name}:{seed}:{cycle_index}")
        out = []
        for op in self.cycle:
            if self.seeded:
                s = rng.randrange(1, 2**31)
                op = Op(op.argv + ("--seed", str(s)), op.key, s)
            out.append(op)
        return out


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def check_sources() -> None:
    """Fail fast when the checkout holds no program to measure."""

    for rel in ("src/tmc_forge/cli.py", RUN_FILE):
        if not (ROOT / rel).is_file():
            raise FileNotFoundError(f"missing {rel}: run from a full checkout")


# ---------------------------------------------------------------------------
# Preparation
# ---------------------------------------------------------------------------


def prepare(name: str, seed: int, workdir: Path) -> Prepared:
    if name == "run_large":
        cycle = [Op(("run", RUN_FILE, "--entry", e, "--arg", "fun:add1",
                     "--arg", f"list:{RUN_SIZE}", "--transform", "--metrics"),
                    e) for e in RUN_ENTRIES]
        return Prepared(name, cycle, seeded=True)
    if name == "diff_many":
        cycle = []
        for stem, entry, specs in DIFF_PROGRAMS:
            argv = ["diff", f"corpus/{stem}.tmc", "--entry", entry]
            for s in specs:
                argv += ["--arg", s]
            cycle.append(Op(tuple(argv), stem))
        return Prepared(name, cycle, seeded=True)
    if name == "transform_large":
        units = corpus_units()
        workdir.mkdir(parents=True, exist_ok=True)
        cycle = []
        for index in pool_indices(seed):
            path = workdir / f"gen{index}.tmc"
            path.write_text(generate_program(index, units))
            out = workdir / f"out{index}.tmc"
            cycle.append(Op(("transform", str(path), "--out", str(out)),
                            str(index)))
        return Prepared(name, cycle, seeded=False)
    raise ValueError(f"unknown workload {name!r}")


def pool_indices(seed: int) -> list[int]:
    return random.Random(f"transform_large:{seed}").sample(
        range(POOL_SIZE), PROGRAMS_PER_RUN)


# ---------------------------------------------------------------------------
# Generated programs for transform_large
# ---------------------------------------------------------------------------

_FUN_NAME = re.compile(r"\(fun (?:\(@ \w+\) )?(\w+)")


def _toplevel_forms(text: str) -> list[str]:
    """The parenthesised forms directly inside `(program ...)`."""

    text = "\n".join(line.split(";", 1)[0] for line in text.splitlines())
    forms, depth, start = [], 0, None
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
            if depth == 2:
                start = i
        elif ch == ")":
            if depth == 2:
                forms.append(text[start:i + 1])
            depth -= 1
    return forms


def corpus_units() -> list[tuple[list[str], list[str]]]:
    """Per corpus file: its letrec groups and the function names they define."""

    units = []
    for stem in UNIT_FILES:
        forms = _toplevel_forms((ROOT / "corpus" / f"{stem}.tmc").read_text())
        groups = [f for f in forms if f.startswith("(letrec")]
        names = sorted({n for g in groups for n in _FUN_NAME.findall(g)})
        units.append((groups, names))
    return units


def _rename(text: str, names: list[str], suffix: str) -> str:
    pattern = re.compile(r"(?<![\w])(" + "|".join(map(re.escape, names))
                         + r")(?![\w])")
    return pattern.sub(lambda m: m.group(1) + suffix, text)


def chain_function(name: str, depth: int, rng: random.Random) -> str:
    """A marked list map whose Cons case is a let/seq/match chain of `depth`
    layers, a third of each kind in seeded order; the recursive call sits
    at the bottom, in TMC position."""

    kinds = [i % 3 for i in range(depth)]
    rng.shuffle(kinds)
    var, opens, closes = "x", [], []
    for i, kind in enumerate(kinds):
        if kind == 0:
            opens.append(f"(let v{i} (call add {var} {rng.randrange(10)}) ")
            closes.append(")")
            var = f"v{i}"
        elif kind == 1:
            opens.append(f"(seq (call add1 {var}) ")
            closes.append(")")
        else:
            opens.append(f"(match {var} (case {rng.randrange(100)} (constr Nil)) "
                         f"(case v{i} ")
            closes.append("))")
            var = f"v{i}"
    body = "".join(opens) + f"(constr Cons {var} (call {name} rest))" \
        + "".join(reversed(closes))
    return (f"(letrec (fun (@ tail_mod_cons) {name} (xs) (match xs "
            f"(case Nil (constr Nil)) (case (Cons x rest) {body}))))")


def generate_program(index: int, units=None) -> str:
    """Pool program `index`: renamed copies of corpus groups plus deep marked
    functions, one letrec group per line.

    Every pool program has the same multiset of corpus copies and chain
    depths; the seed only orders them and picks the constants, so that the
    programs cost about the same to transform."""

    units = units if units is not None else corpus_units()
    rng = random.Random(f"transform_large:pool:{index}")
    copies = [u for u, n in zip(units, UNIT_COPIES) for _ in range(n)]
    rng.shuffle(copies)
    groups = [_rename(g, names, f"_{k}")
              for k, (unit_groups, names) in enumerate(copies) for g in unit_groups]
    for j, depth in enumerate(CHAIN_DEPTHS):
        chain = chain_function(f"chain_{j}", depth, rng)
        groups.insert(rng.randrange(len(groups) + 1), chain)
    return "(program\n" + "".join(f"  {g}\n" for g in groups) + "  (main (int 0)))\n"


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------

_MASK = (1 << 64) - 1


def lcg_list(seed: int, n: int) -> list[int]:
    """`list:<n>` as documented: a 64-bit LCG (Knuth's MMIX constants),
    values `(state >> 33) % 100`; written here from the spec, not imported."""

    state = (seed ^ 0x9E3779B97F4A7C15) & _MASK
    state = (state * 6364136223846793005 + 1442695040888963407) & _MASK
    out = []
    for _ in range(n):
        state = (state * 6364136223846793005 + 1442695040888963407) & _MASK
        out.append((state >> 33) % 100)
    return out


def render_list(values: list[int]) -> str:
    return "".join(f"(Cons {v} " for v in values) + "Nil" + ")" * len(values)


def parse_counters(lines: list[str]) -> dict[str, int]:
    out = {}
    for line in lines:
        k, sep, v = line.partition("=")
        if not sep or not v.isdigit():
            raise ValueError(f"not a counter line: {line!r}")
        out[k] = int(v)
    return out


def output_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_op(name: str, op: Op, outcome: Outcome, golden: dict) -> str | None:
    """None when the op's exit code, output and counters are the expected
    ones, otherwise a one-line reason."""

    if outcome.rc != 0:
        return f"exit {outcome.rc}: {outcome.stderr.strip()[-200:]}"
    if name != "transform_large" and outcome.stderr:
        return f"unexpected stderr: {outcome.stderr.strip()[:200]}"
    if name == "run_large":
        lines = outcome.stdout.splitlines()
        want = render_list([v + 1 for v in lcg_list(op.seed, RUN_SIZE)])
        if not lines or lines[0] != want:
            return "printed value differs from the plain-Python map"
        try:
            counters = parse_counters(lines[1:])
        except ValueError as exc:
            return str(exc)
        if counters != golden["run_large"][op.key]:
            return f"counters {counters} != golden {golden['run_large'][op.key]}"
        return None
    if name == "diff_many":
        lines = outcome.stdout.splitlines()
        entry = next(e for s, e, _ in DIFF_PROGRAMS if s == op.key)
        div = golden["diff_many"][op.key]
        head = (f"entry={entry} trials={DIFF_TRIALS} failures=0 "
                f"trace_divergences={div}")
        if not lines or lines[0] != head:
            return f"summary {lines[:1]} != {head!r}"
        rest = lines[1:]
        if len(rest) != div or not all(l.startswith("TRACE-DIVERGENCE seed=")
                                       for l in rest):
            return "divergence lines differ from the summary"
        return None
    if name == "transform_large":
        want = golden["transform_large"][op.key]
        warnings = outcome.stderr.splitlines()
        if outcome.stdout:
            return "unexpected stdout"
        if len(warnings) != want["warnings"] or not all(
                w.startswith("WARNING ") for w in warnings):
            return f"stderr is not the {want['warnings']} expected warnings"
        if outcome.output_sha256 != want["sha256"]:
            return "output digest differs from the golden"
        return None
    raise ValueError(name)


def check_invariants(counters_by_entry: dict[str, dict]) -> list[str]:
    """The paper's claims on the run_large counters; returns violations."""

    bad = []
    allocs = {e: c["allocations"] for e, c in counters_by_entry.items()
              if e in ("map_direct", "map", "umap")}
    if len(set(allocs.values())) > 1:
        bad.append(f"allocation parity broken: {allocs}")
    for e in ("map", "umap"):
        if e in counters_by_entry and counters_by_entry[e]["max_stack_depth"] != 2:
            bad.append(f"{e} depth {counters_by_entry[e]['max_stack_depth']} != 2")
    if "umap" in counters_by_entry and \
            counters_by_entry["umap"]["dest_writes"] != RUN_SIZE // 2 + 1:
        bad.append(f"umap writes {counters_by_entry['umap']['dest_writes']} "
                   f"!= N/2+1")
    return bad


# ---------------------------------------------------------------------------
# Known-defect probes (diff_many only, outside the timed pass)
# ---------------------------------------------------------------------------

# (argv, stdout expected on exit 0 or None when only a documented error
# exit is correct)
PROBES = (
    (("diff", "corpus/map.tmc", "--entry", "map", "--arg", "fun:add1",
      "--arg", "list:2000", "--trials", "1"),
     "entry=map trials=1 failures=0 trace_divergences=0\n"),
    (("diff", "corpus/map.tmc", "--entry", "map", "--arg", "fun:add1",
      "--arg", "lst:3"), None),
    (("bench", "corpus/map_variants.tmc", "--entry", "map", "--arg",
      "fun:add1", "--arg", "list:N", "--sizes", "10,bogus"), None),
)
DOCUMENTED_EXITS = (1, 2)


def probe_passes(outcome: Outcome, want_stdout: str | None) -> bool:
    """Success with the right output, or a documented exit code with a
    one-line diagnostic; a raised exception (a traceback) never passes."""

    if outcome.rc == 0:
        return want_stdout is not None and outcome.stdout == want_stdout
    if outcome.rc in DOCUMENTED_EXITS:
        lines = outcome.stderr.strip().splitlines()
        return len(lines) == 1 and "Traceback" not in outcome.stderr
    return False
