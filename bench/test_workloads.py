"""Tests of the benchmark itself: generators and closed forms against 2^n
enumeration on small sizes, the answer checks, the tracer, and the
command-line behaviour of run.py.

    python3 -m pytest bench
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads as w  # noqa: E402


def brute_models(rays: dict[str, w.Ray], dim: int) -> set[frozenset[str]]:
    """All admissible assignments by 2^n enumeration: one 1 in every
    maximal context, never two 1s on orthogonal rays."""
    labels = list(rays)
    contexts = w.orthogonal_cliques(rays, dim)
    pairs = [(a, b) for a, b in itertools.combinations(labels, 2)
             if w.dot(rays[a], rays[b]) == 0]
    models = set()
    for bits in itertools.product((0, 1), repeat=len(labels)):
        ones = {l for l, b in zip(labels, bits) if b}
        if all(len(ones.intersection(c)) == 1 for c in contexts) and \
                not any(a in ones and b in ones for a, b in pairs):
            models.add(frozenset(ones))
    return models


def solve_models(rays: dict[str, w.Ray],
                 contexts: list[frozenset[str]]) -> set[frozenset[str]]:
    """All admissible assignments by choosing the 1 of each context in turn
    (every ray must lie in some context)."""
    orthogonal = {a: {b for b in rays if w.dot(rays[a], rays[b]) == 0}
                  for a in rays}
    models = set()

    def choose(i: int, ones: frozenset[str], zeros: frozenset[str]) -> None:
        if i == len(contexts):
            models.add(ones)
            return
        chosen = contexts[i] & ones
        if len(chosen) > 1:
            return
        for m in chosen or contexts[i] - zeros:
            rest = contexts[i] - {m}
            if rest & ones or orthogonal[m] & ones:
                continue
            choose(i + 1, ones | {m}, zeros | rest | orthogonal[m])
    choose(0, frozenset(), frozenset())
    return models


def cliques(rays: dict[str, w.Ray], size: int) -> list[frozenset[str]]:
    """The `size`-cliques of the orthogonality graph, by extension."""
    labels = list(rays)
    adj = {a: {b for b in labels if w.dot(rays[a], rays[b]) == 0}
           for a in labels}
    found = []

    def extend(clique: list[str], candidates: list[str]) -> None:
        if len(clique) == size:
            found.append(frozenset(clique))
            return
        for i, v in enumerate(candidates):
            extend(clique + [v], [c for c in candidates[i + 1:] if c in adj[v]])
    extend([], labels)
    return found


# ---------------------------------------------------------------------------
# generators and closed forms
# ---------------------------------------------------------------------------

def test_d4_models_match_enumeration():
    # D4 has 32 star models and 32 triangle models: 64, not 4*2^3
    rays = w.d_roots(4)
    assert len(rays) == 12
    contexts = cliques(rays, 4)
    assert len(contexts) == w.double_factorial(3) == 3
    models = brute_models(rays, 4)
    assert len(models) == 4 * 2 ** 3 + 4 * 2 ** 3
    assert models == w.d_root_models(4) == solve_models(rays, contexts)


@pytest.mark.parametrize("n", [6, 8])
def test_d_root_closed_forms(n):
    rays = w.d_roots(n)
    assert len(rays) == len(set(rays.values())) == n * (n - 1)
    contexts = cliques(rays, n)
    assert len(contexts) == w.double_factorial(n - 1)
    assert cliques(rays, n + 1) == []
    models = w.d_root_models(n)
    assert len(models) == n * 2 ** (n - 1)
    assert solve_models(rays, contexts) == models


@pytest.mark.parametrize("seed", [w.DEV_SEED, w.HELDOUT_SEED, 7])
def test_triads_k3_models_match_enumeration(seed):
    bases = w.triads(3, seed)
    _, rays, contexts = w.triad_corpus("t", bases)
    assert len(w.orthogonal_cliques(rays, 3)) == 3
    models = brute_models(rays, 3)
    assert len(models) == 3 ** 3
    assert models == {frozenset(c)
                      for c in itertools.product(*contexts.values())}
    assert models == solve_models(rays, [frozenset(c)
                                         for c in contexts.values()])


@pytest.mark.parametrize("seed", [w.DEV_SEED, w.HELDOUT_SEED])
def test_triads_are_disjoint_triangles(seed):
    bases = w.triads(w.TRIADS_COUNT_K, seed)
    assert bases == w.triads(w.TRIADS_COUNT_K, seed)
    rays = [r for basis in bases for r in basis]
    assert len(set(rays)) == len(rays) == 3 * w.TRIADS_COUNT_K
    assert all(w.primitive(r) == r for r in rays)
    orthogonal = [(a, b) for a, b in itertools.combinations(rays, 2)
                  if w.dot(a, b) == 0]
    assert len(orthogonal) == 3 * w.TRIADS_COUNT_K
    assert all(w.dot(a, b) == 0
               for basis in bases for a, b in itertools.combinations(basis, 2))
    assert w.triads(3, w.DEV_SEED) != w.triads(3, w.HELDOUT_SEED)


def test_peres24_structure():
    rays = w.peres24()
    assert len(rays) == len(set(rays.values())) == 24
    tetrads = w.orthogonal_cliques(rays, 4)
    assert len(tetrads) == 24
    assert set(Counter(l for t in tetrads for l in t).values()) == {4}
    states = w.binary_states(4)
    assert len(states) == 15
    for s in states.values():
        for t in tetrads:
            assert sum(w.born_weight(s, rays[m]) for m in t) == Fraction(1)
            values = [w.bivalent_value(s, rays[m]) for m in t]
            assert "gap" in values or values.count("1") == 1


def test_workload_corpora_parse():
    from kscontext import corpus
    for name in w.WORKLOADS:
        for c in w.build(name, w.DEV_SEED).corpora:
            ps = corpus.to_projector_set(corpus.parse(c.text))
            assert len(ps.projectors) == c.projectors
            assert len(ps.contexts) == c.declared


# ---------------------------------------------------------------------------
# answer checks, through the real CLI on small corpora
# ---------------------------------------------------------------------------

def cli_report(tmp_path, text: str, argv) -> tuple[int, dict]:
    from kscontext import cli
    path = tmp_path / "c.pset"
    path.write_text(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main([str(path) if a == "{corpus}" else a for a in argv])
    return status, json.loads(out.getvalue())


def test_checks_accept_right_answers(tmp_path):
    d4 = w.pset_text(4, w.d_roots(4))
    status, report = cli_report(tmp_path, d4, w.color_argv("count"))
    assert w.check_count(len(w.d_root_models(4)))(status, report) == []
    assert w.check_count(32)(status, report) != []

    corpus, rays, contexts = w.triad_corpus("t", w.triads(3, w.DEV_SEED))
    models = {frozenset(c) for c in itertools.product(*contexts.values())}
    status, report = cli_report(tmp_path, corpus.text, w.color_argv("all"))
    assert w.check_models(models, set(rays))(status, report) == []
    assert w.check_models(set(list(models)[1:]), set(rays))(status, report) != []


def test_checks_reject_wrong_answers():
    rays = {"a": (1, 0), "b": (0, 1), "c": (1, 1)}
    contexts = {"C": ("a", "b")}
    state = (1, 0)
    good = {"result": {"gaps": ["c"], "contexts": [
        {"context": "C", "members": ["a", "b"], "values": ["1", "0"], "sum": 1}]}}
    assert w.check_bivalent(state, rays, contexts)(0, good) == []
    bad = json.loads(json.dumps(good))
    bad["result"]["gaps"] = []
    assert w.check_bivalent(state, rays, contexts)(0, bad) != []
    assert w.check_bivalent(state, rays, contexts)(1, good) != []
    born = {"result": {"contexts": [
        {"context": "C", "members": ["a", "b"], "weights": ["1", "0"],
         "sum": "1"}]}}
    assert w.check_born(state, rays, contexts)(0, born) == []
    born["result"]["contexts"][0]["weights"] = ["1/2", "1/2"]
    assert w.check_born(state, rays, contexts)(0, born) != []
    assert w.check_unsat(0, {"result": {"status": "SAT"}}) != []


# ---------------------------------------------------------------------------
# tracer and run.py
# ---------------------------------------------------------------------------

def test_self_times_add_up_to_the_root():
    tracer = spans.Tracer("t")
    leaf = tracer.wrap(lambda: sum(range(10000)), "x.leaf")
    mid = tracer.wrap(lambda: [leaf() for _ in range(3)], "y.mid")
    root = tracer.wrap(lambda: (mid(), leaf()), "z.root")
    root()
    own, total = tracer.summary()
    assert len(tracer.spans) == 6
    assert all(s[4] == "t" for s in tracer.spans)
    assert [s[3] for s in tracer.spans] == [None, 0, 1, 1, 1, 0]
    assert sum(own.values()) == pytest.approx(total["z.root"])
    assert own["x.leaf"] == pytest.approx(total["x.leaf"])


def test_instrument_restores_bindings():
    from kscontext import contexts
    original = contexts.is_orthogonal
    with spans.instrument(spans.Tracer("t")) as tracer:
        assert contexts.is_orthogonal is not original
    assert contexts.is_orthogonal is original
    assert tracer.missing == []


def test_benchmark_json_matches_run():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _, _ in run.PER_LAYER]
    assert [wl["name"] for wl in spec["workloads"]] == list(w.WORKLOADS)


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "d8-setup", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
