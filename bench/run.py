"""Layer-by-layer benchmark of kscontext, standard library only.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Builds the workload's PSET corpora from formulas (see workloads.py), times
set-up (`corpus.parse` then `corpus.to_projector_set`) in this process,
then runs whole sessions of the workload's CLI calls, each in a fresh
interpreter (session.py), one after another, for about S seconds: a
closed loop with one client.  Every call's JSON report is checked against
an answer derived with integer arithmetic; a wrong answer or exit status
counts as failed.

Times are in reference seconds: wall time less the host-speed probe's own
time, scaled by the probe's speed during the same interval (hostspeed.py),
so that drift in a shared host's speed cancels.  The report prints the raw
wall times beside them.

With --trace 0 the result carries the end-to-end metrics.  With --trace 1,
traced sessions alternate with untraced ones and the result carries the
per-layer metrics: self times of the spans recorded around kscontext's
public functions (spans.py), counters, and the tracing overhead.  The last
stdout line is the JSON result; the lines before it are a readable report
with quartiles, per-command times, the per-layer table and the machine.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import workloads  # noqa: E402

RUN_LIMIT_S = 170        # a run must end well inside 180 s
SETUP_BATCHES = 7        # set-up is timed in batches; the median batch counts
SETUP_BATCH_S = 0.4      # long enough for a few probes per batch

# name, unit
END_TO_END = [
    ("session_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
]

# per-command timings: printed, not part of the result (not every workload
# issues every command); name -> (call metric, scale to unit, unit)
PER_COMMAND = {
    "color_count_s": ("color_count", 1, "s"),
    "color_all_s": ("color_all", 1, "s"),
    "color_first_s": ("color_first", 1, "s"),
    "localize_s": ("localize", 1, "s"),
    "validate_s": ("validate", 1, "s"),
    "eval_bivalent_ms": ("eval_bivalent", 1000, "ms"),
    "eval_born_ms": ("eval_born", 1000, "ms"),
}

# name, unit, end-to-end metric it should move, workload where it shows.
# Every per-layer time here is nonzero on every workload; layer times that
# are zero on some workload are printed in the report only.
PER_LAYER = [
    ("cli.main_s", "s", "session_s", "all"),
    ("cli.self_s", "s", "color_all_s, eval per-call floor",
     "triads-search, peres-queries"),
    ("corpus.parse_s", "s", "setup_s, per-call floor", "all, most peres-queries"),
    ("corpus.emit_s", "s", "per-call floor", "all, most peres-queries"),
    ("corpus.self_s", "s", "setup_s, per-call floor", "all, most peres-queries"),
    ("linalg.projector_from_span_s", "s", "setup_s, per-call floor",
     "all, most peres-queries"),
    ("linalg.projectors", "count", "setup_s, per-call floor", "peres-queries"),
    ("linalg.is_orthogonal_s", "s", "color_count_s, session_s",
     "d8-setup (about 0 on triads-search)"),
    ("linalg.pairs_tested", "count", "color_count_s, session_s", "d8-setup"),
    ("linalg.pairs_orthogonal", "count", "color_count_s, session_s", "d8-setup"),
    ("linalg.orthogonal_ratio", "ratio", "color_count_s, session_s", "d8-setup"),
    ("linalg.self_s", "s", "session_s", "d8-setup, peres-queries"),
    ("contexts.projector_set_s", "s", "setup_s, eval_born_ms, validate_s",
     "peres-queries"),
    ("contexts.orthogonality_graph_s", "s", "color_count_s / eval_bivalent_ms",
     "d8-setup / peres-queries"),
    ("contexts.find_maximal_contexts_s", "s", "color_count_s / eval_bivalent_ms",
     "d8-setup / peres-queries"),
    ("contexts.edges", "count", "color_count_s / eval_bivalent_ms",
     "d8-setup / peres-queries"),
    ("contexts.maximal_contexts", "count", "color_count_s / eval_bivalent_ms",
     "d8-setup / peres-queries"),
    ("contexts.self_s", "s", "color_count_s, eval_bivalent_ms, validate_s",
     "d8-setup, peres-queries"),
    ("search.self_s", "s", "color_count_s, color_all_s, localize_s",
     "triads-search (about 0 on d8-setup)"),
    ("search.nodes", "count", "color_count_s", "triads-search"),
    ("search.nodes_per_s", "1/s", "color_count_s", "triads-search"),
    ("search.pins", "count", "localize_s", "triads-search, peres-queries"),
    ("valuation.gaps", "count", "eval_bivalent_ms", "peres-queries"),
    ("trace.overhead_ratio", "ratio", "none: traced over untraced session_s",
     "all"),
]

# printed only, with the table above: zero on workloads that skip the layer
PRINTED_ONLY = [
    ("search.count_s", "color_count_s", "triads-search (about 0 on d8-setup)"),
    ("search.first_s", "color_first_s", "peres-queries"),
    ("search.all_s", "color_all_s", "triads-search"),
    ("search.localize_certificate_s", "localize_s",
     "triads-search, peres-queries"),
    ("contexts.validate_context_s", "setup_s, eval_born_ms, validate_s",
     "peres-queries"),
    ("valuation.evaluate_bivalent_s", "eval_bivalent_ms", "peres-queries"),
    ("valuation.born_value_s", "eval_born_ms", "peres-queries"),
    ("valuation.localize_indefiniteness_s", "eval_bivalent_ms", "peres-queries"),
    ("valuation.self_s", "eval_bivalent_ms, eval_born_ms", "peres-queries"),
]


class BenchError(Exception):
    """The run cannot produce a result; exits 2 without printing one."""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu, "commit": git_commit()}


def load_average() -> tuple[float, ...] | str:
    try:
        return tuple(round(x, 2) for x in os.getloadavg())
    except OSError:
        return "unavailable"


def git_commit() -> str:
    """HEAD of ROOT's own .git, read from files; never a parent repo's."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def time_setup(workload: workloads.Workload) -> tuple[list[float], list[float]]:
    """Seconds from workload text to ready ProjectorSets, per repetition, in
    reference and in wall seconds, one value per batch of repetitions, after
    one checked warm-up repetition."""
    from kscontext import corpus
    for c in workload.corpora:
        ps = corpus.to_projector_set(corpus.parse(c.text))
        if (len(ps.projectors) != c.projectors or len(ps.contexts) != c.declared
                or not all(ctx.maximal for ctx in ps.contexts)):
            raise BenchError(f"set-up of {c.name} gave {len(ps.projectors)} "
                             f"projectors and {len(ps.contexts)} contexts, "
                             f"expected {c.projectors} and {c.declared}, all "
                             f"maximal")
    times: list[float] = []
    walls: list[float] = []
    with hostspeed.Sampler() as sampler:
        for _ in range(SETUP_BATCHES):
            first, paused = len(sampler.durations), sampler.paused
            start = time.perf_counter()
            reps = 0
            while reps == 0 or time.perf_counter() - start < SETUP_BATCH_S:
                for c in workload.corpora:
                    corpus.to_projector_set(corpus.parse(c.text))
                reps += 1
            wall = time.perf_counter() - start
            net = wall - (sampler.paused - paused)
            times.append(net * sampler.scale(first) / reps)
            walls.append(wall / reps)
    return times, walls


def run_sessions(args, corpus_dir: str, deadline: float) -> dict[bool, list]:
    """Sessions keyed by traced-ness.  A new session starts only while it can
    end within --seconds, judging by the longest so far; the first session
    (with --trace 1, the first of each kind) always runs."""
    kinds = (False, True) if args.trace else (False,)
    sessions: dict[bool, list] = {False: [], True: []}
    start = time.perf_counter()
    longest = 0.0
    for i in itertools.count():
        traced = kinds[i % len(kinds)]
        began = time.perf_counter()
        if i >= len(kinds) and began - start + longest > args.seconds:
            break
        run_id = f"{args.workload}:{args.seed}:{i}"
        cmd = [sys.executable, str(BENCH / "session.py"), args.workload,
               str(args.seed), corpus_dir, str(int(traced)), run_id]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  env={**os.environ, "PYTHONHASHSEED": "0"},
                                  timeout=max(1.0, deadline - began))
        except subprocess.TimeoutExpired:
            raise BenchError(f"session {run_id} passed the {RUN_LIMIT_S} s "
                             f"run limit")
        longest = max(longest, time.perf_counter() - began)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"session {run_id} exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
        sessions[traced].append(json.loads(lines[-1]))
    return sessions


def session_seconds(session: dict) -> float:
    """The session's calls, in reference seconds."""
    return session["scale"] * sum(c["seconds"] or 0.0 for c in session["calls"])


def session_wall(session: dict) -> float:
    return sum(c["wall"] or 0.0 for c in session["calls"])


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Per-layer values of each traced session, then their medians."""
    per_session = []
    for s in traced:
        own = {n: v * s["scale"] for n, v in s["trace"]["self_s"].items()}
        total = {n: v * s["scale"] for n, v in s["trace"]["total_s"].items()}
        counters = s["trace"]["counters"]
        m: dict[str, float] = {f"{name}_s": v for name, v in own.items()}
        for name, v in own.items():
            layer = name.split(".")[0]
            m[f"{layer}.self_s"] = m.get(f"{layer}.self_s", 0.0) + v
        m["cli.main_s"] = total.get("cli.main", 0.0)
        m["cli.self_s"] = own.get("cli.main", 0.0)
        m.update(counters)
        tested = counters.get("linalg.pairs_tested", 0)
        m["linalg.orthogonal_ratio"] = (
            counters.get("linalg.pairs_orthogonal", 0) / tested if tested else 0.0)
        search_s = sum(own.get(f"search.{mode}", 0.0)
                       for mode in ("count", "first", "all"))
        m["search.nodes_per_s"] = (counters.get("search.nodes", 0) / search_s
                                   if search_s else 0.0)
        m["trace.session_s"] = session_seconds(s)
        m["trace.accounted_ratio"] = (
            sum(own.values()) / m["trace.session_s"] if m["trace.session_s"] else 0.0)
        per_session.append(m)
    names = {n for m in per_session for n in m}
    medians = {n: statistics.median(m.get(n, 0.0) for m in per_session)
               for n in names}
    medians["trace.overhead_ratio"] = (
        medians["trace.session_s"]
        / statistics.median(session_seconds(s) for s in untraced))
    return medians


def report(args, workload, setup, sessions, info, loads) -> dict:
    untraced, traced = sessions[False], sessions[True]
    everything = untraced + traced
    attempted = sum(len(s["calls"]) for s in everything)
    problems = [(c["metric"], p) for s in everything for c in s["calls"]
                for p in c["problems"]]
    failed = sum(1 for s in everything for c in s["calls"] if c["problems"])

    seed_kind = {workloads.DEV_SEED: "development",
                 workloads.HELDOUT_SEED: "held-out"}.get(args.seed, "other")
    print(f"workload {args.workload}  seed {args.seed} ({seed_kind})  "
          f"trace {args.trace}  seconds {args.seconds}")
    print(f"machine: nproc {info['nproc']}, python {info['python']}, "
          f"cpu {info['cpu']}, commit {info['commit']}")
    print(f"load average before {loads[0]}  after {loads[1]}")
    print(f"calls: {len(workload.calls)} per session, "
          f"{len(untraced)} untraced + {len(traced)} traced sessions, "
          f"{attempted} attempted, {failed} failed, "
          f"failed_frac {failed / attempted:.4f}")
    for metric, problem in problems[:20]:
        print(f"  WRONG {metric}: {problem}")

    def line(name, values, unit):
        q1, med, q3 = quartiles(values)
        print(f"  {name:<34} {med:>12.6g} {unit:<5} "
              f"q1 {q1:.6g}  q3 {q3:.6g}  n {len(values)}")

    setup, setup_wall = setup
    e2e = {
        "session_s": [session_seconds(s) for s in untraced],
        "setup_s": setup,
        "peak_rss_mib": [s["peak_rss_mib"] for s in untraced],
    }
    print("end to end (untraced sessions; times in reference seconds):")
    for name, unit in END_TO_END:
        line(name, e2e[name], unit)
    calls = defaultdict(list)
    for s in untraced:
        for c in s["calls"]:
            if c["seconds"] is not None:
                calls[c["metric"]].append(c["seconds"] * s["scale"])
    for name, (metric, scale, unit) in PER_COMMAND.items():
        if calls[metric]:
            line(name, [v * scale for v in calls[metric]], unit)
    print("raw wall times and host speed:")
    line("session_wall_s", [session_wall(s) for s in untraced], "s")
    line("setup_wall_s", setup_wall, "s")
    line("reference_s_per_wall_s", [s["scale"] for s in everything], "ratio")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if not args.trace:
        result["metrics"] = {name: {"value": statistics.median(e2e[name]),
                                    "unit": unit} for name, unit in END_TO_END}
        return result

    layers = layer_metrics(traced, untraced)
    print("per layer (median over traced sessions; self times exclude child "
          "spans):")
    print(f"  {'metric':<36} {'value':>12}  moves / on")
    for name, unit, moves, on in PER_LAYER:
        print(f"  {name:<36} {layers.get(name, 0.0):>12.6g} {unit:<5} "
              f"{moves} / {on}")
    for name, moves, on in PRINTED_ONLY:
        print(f"  {name:<36} {layers.get(name, 0.0):>12.6g} s     "
              f"{moves} / {on}")
    print(f"traced session_s {layers['trace.session_s']:.6g} s; layer self "
          f"times account for {layers['trace.accounted_ratio']:.4%} of it; "
          f"tracing overhead {layers['trace.overhead_ratio'] - 1:+.2%} "
          f"against untraced session_s")
    for s in traced[:1]:
        for name in s["trace"]["missing"]:
            print(f"  not traced, absent from the package: {name}")
    result["metrics"] = {name: {"value": layers.get(name, 0.0), "unit": unit}
                         for name, unit, _, _ in PER_LAYER}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEV_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run_start = time.perf_counter()
    deadline = run_start + RUN_LIMIT_S
    try:
        if not (SRC / "kscontext" / "cli.py").is_file():
            raise BenchError(f"no kscontext sources under {SRC}")
        sys.path.insert(0, str(SRC))
        info = machine()
        load_before = load_average()
        workload = workloads.build(args.workload, args.seed)
        setup = time_setup(workload)
        corpus_dir = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
        try:
            for c in workload.corpora:
                Path(corpus_dir, f"{c.name}.pset").write_text(
                    c.text, encoding="utf-8")
            sessions = run_sessions(args, corpus_dir, deadline)
        finally:
            shutil.rmtree(corpus_dir, ignore_errors=True)
        loads = (load_before, load_average())
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    result = report(args, workload, setup, sessions, info, loads)
    print(f"run took {time.perf_counter() - run_start:.1f} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
