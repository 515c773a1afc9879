"""Run one workload session in this (fresh) process and print its result.

    python3 bench/session.py WORKLOAD SEED CORPUS_DIR TRACE RUN_ID

The workload's calls go through `kscontext.cli.main` in-process, one at a
time, each with `--format json`; every report is parsed and checked against
the workload's integer-derived answers.  The host-speed probe runs
throughout (hostspeed.py).  The last stdout line is a JSON object with the
per-call net and wall times and problems, the session's reference-seconds
scale, its peak RSS and, when TRACE is 1, the span summary.  `run.py`
starts one such process per session so that peak memory belongs to a
single pass over the workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from kscontext import cli  # noqa: E402


def run_call(call: workloads.Call, path: Path, sampler: hostspeed.Sampler,
             tracer: spans.Tracer | None) -> dict:
    """Time one call; `seconds` is its wall time less the probe time."""
    argv = [str(path) if a == "{corpus}" else a for a in call.argv]
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.contexts_found.clear()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            paused = sampler.paused
            start = time.perf_counter()
            status = cli.main(argv)
            wall = time.perf_counter() - start
            seconds = wall - (sampler.paused - paused)
    except Exception as e:  # a traceback is a failed call, not a dead run
        return {"metric": call.metric, "seconds": None, "wall": None,
                "problems": [f"{type(e).__name__}: {e}"]}
    try:
        report = json.loads(out.getvalue())
    except json.JSONDecodeError:
        problems = [f"exit {status}, no JSON report: {err.getvalue().strip()}"]
    else:
        problems = call.check(status, report)
    return {"metric": call.metric, "seconds": seconds, "wall": wall,
            "problems": problems}


def main(argv: list[str]) -> int:
    name, seed, corpus_dir, trace, run_id = argv
    workload = workloads.build(name, int(seed))
    paths = {}
    for corpus in workload.corpora:
        paths[corpus.name] = Path(corpus_dir) / f"{corpus.name}.pset"
        if paths[corpus.name].read_text(encoding="utf-8") != corpus.text:
            raise SystemExit(f"{paths[corpus.name]} does not hold the "
                             f"{name} corpus for seed {seed}")
    expected_contexts = {c.name: c.maximal for c in workload.corpora}

    sampler = hostspeed.Sampler()
    tracer = spans.Tracer(run_id, lambda: sampler.paused) if trace == "1" else None
    calls = []
    with sampler, (spans.instrument(tracer) if tracer
                   else contextlib.nullcontext()):
        for call in workload.calls:
            result = run_call(call, paths[call.corpus], sampler, tracer)
            if tracer is not None:
                # the closed-form context count, checked where it is computed
                want = expected_contexts[call.corpus]
                wrong = [n for n in tracer.contexts_found if n != want]
                if wrong:
                    result["problems"].append(
                        f"discovered {wrong[0]} maximal contexts, expected {want}")
            calls.append(result)

    result = {
        "calls": calls,
        "scale": sampler.scale(),
        "probes": len(sampler.durations),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        own, total = tracer.summary()
        result["trace"] = {"self_s": own, "total_s": total,
                           "counters": dict(tracer.counters),
                           "spans": len(tracer.spans),
                           "missing": tracer.missing}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
