"""Benchmark workloads: PSET corpora built from formulas, their CLI call
lists, and answer checks derived with integer arithmetic only.

Nothing here imports kscontext.  Every expected answer comes from a closed
form (7!!, 8*2^7, 3^k, 24 tetrads) or from integer dot products on the
generating rays, never from the program's own output, so a fast wrong
answer fails the run.

Workloads (each stresses a different layer):

* ``d8-setup``: the 56 D8 root rays e_i +- e_j in Q^8, no declared
  contexts, one ``color --mode count``.  1540 Fraction pair tests dominate;
  the search visits only about 2k nodes.
* ``triads-search``: k seeded random orthogonal bases of Q^3 that share no
  ray and no orthogonality.  3^k models make the search dominate; the
  all-models call adds rendering of 3^8 witnesses.
* ``peres-queries``: Peres' 24 rays in Q^4 with their 24 tetrads and 15
  {0,1}^4 states, queried state by state.  Many short calls, so per-call
  costs and the valuation layer carry the weight.

Only ``triads-search`` draws from the seed; the other two corpora are fixed
formulas, so their work is the same on every seed.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

DEV_SEED = 1       # seed used while writing a change
HELDOUT_SEED = 2   # seed kept back to re-check a claim made on DEV_SEED

TRIADS_COUNT_K = 12   # bases in the count / localize corpus: 3^12 models
TRIADS_ALL_K = 8      # bases in the all-models corpus: 3^8 witnesses

Ray = tuple[int, ...]


# ---------------------------------------------------------------------------
# integer helpers
# ---------------------------------------------------------------------------

def dot(u: Ray, v: Ray) -> int:
    return sum(a * b for a, b in zip(u, v))


def parallel(u: Ray, v: Ray) -> bool:
    """u and v span the same line: every 2x2 minor vanishes."""
    return all(u[i] * v[j] == u[j] * v[i]
               for i in range(len(u)) for j in range(i + 1, len(u)))


def primitive(entries) -> Ray:
    """Scale rationals to coprime integers with a positive leading entry."""
    fracs = [Fraction(e) for e in entries]
    scale = math.lcm(*(f.denominator for f in fracs))
    ints = [int(f * scale) for f in fracs]
    g = math.gcd(*ints)
    ints = [x // g for x in ints]
    lead = next(x for x in ints if x)
    return tuple(x if lead > 0 else -x for x in ints)


def double_factorial(n: int) -> int:
    return math.prod(range(n, 0, -2))


def born_weight(state: Ray, ray: Ray) -> Fraction:
    """<s|P|s>/<s|s> for the rank-1 projector onto `ray`, from dot products."""
    return Fraction(dot(state, ray) ** 2, dot(state, state) * dot(ray, ray))


def bivalent_value(state: Ray, ray: Ray) -> str:
    """'1' if the state lies on the ray, '0' if orthogonal to it, else 'gap'."""
    if parallel(state, ray):
        return "1"
    if dot(state, ray) == 0:
        return "0"
    return "gap"


def orthogonal_cliques(rays: dict[str, Ray], size: int) -> list[tuple[str, ...]]:
    """All `size`-sets of mutually orthogonal rays, by subset enumeration."""
    labels = list(rays)
    return [combo for combo in itertools.combinations(labels, size)
            if all(dot(rays[a], rays[b]) == 0
                   for a, b in itertools.combinations(combo, 2))]


# ---------------------------------------------------------------------------
# corpus formulas
# ---------------------------------------------------------------------------

def _sign_name(s: int) -> str:
    return "p" if s > 0 else "m"


def d_roots(n: int) -> dict[str, Ray]:
    """The D_n root rays e_i + e_j and e_i - e_j (i < j), one per +- pair."""
    rays = {}
    for i, j in itertools.combinations(range(n), 2):
        for s in (1, -1):
            v = [0] * n
            v[i], v[j] = 1, s
            rays[f"r{i + 1}{_sign_name(s)}{j + 1}"] = tuple(v)
    return rays


def d_root_models(n: int) -> set[frozenset[str]]:
    """Closed form of the D_n models (n even, n >= 4), as sets of 1-rays.

    The 1-rays must be pairwise non-orthogonal, so their coordinate pairs
    pairwise intersect: a star (all pairs through one centre) or a
    triangle.  Each perfect matching of the n coordinates is a context and
    must hold exactly one of them.  A star does so only when it holds every
    pair through its centre; a triangle does so only for n = 4.  Each pair
    takes either sign, so D_n has n*2^(n-1) models, plus 4*2^3 triangles
    when n = 4.
    """
    rays = d_roots(n)
    by_ray = {r: l for l, r in rays.items()}
    families = [[(centre, j) for j in range(n) if j != centre]
                for centre in range(n)]
    if n == 4:
        families += [list(itertools.combinations(t, 2))
                     for t in itertools.combinations(range(n), 3)]
    models = set()
    for pairs in families:
        for signs in itertools.product((1, -1), repeat=len(pairs)):
            ones = set()
            for (i, j), s in zip(pairs, signs):
                v = [0] * n
                v[i], v[j] = 1, s
                ones.add(by_ray[primitive(v)])
            models.add(frozenset(ones))
    return models


def triads(k: int, seed: int) -> list[tuple[Ray, Ray, Ray]]:
    """k orthogonal bases of Q^3 from integer draws in [-3, 3].

    Each basis comes from Gram-Schmidt on random draws, scaled to primitive
    integer rays.  A basis with a ray orthogonal or equal to an earlier ray
    is rejected, so the orthogonality graph is k disjoint triangles.
    """
    rng = random.Random(seed)

    def draw() -> Ray:
        while True:
            v = tuple(rng.randint(-3, 3) for _ in range(3))
            if any(v):
                return v

    bases: list[tuple[Ray, Ray, Ray]] = []
    seen: list[Ray] = []
    while len(bases) < k:
        ortho: list[list[Fraction]] = []
        while len(ortho) < 3:
            v = [Fraction(x) for x in draw()]
            u = list(v)
            for w in ortho:
                c = sum(a * b for a, b in zip(v, w)) / sum(b * b for b in w)
                u = [a - c * b for a, b in zip(u, w)]
            if any(u):
                ortho.append(u)
        basis = tuple(primitive(u) for u in ortho)
        if any(r == s or dot(r, s) == 0 for r in basis for s in seen):
            continue
        bases.append(basis)
        seen.extend(basis)
    return bases


def peres24() -> dict[str, Ray]:
    """Peres' 24 rays: (1,0,0,0), (1,1,0,0), (1,1,1,1) under coordinate
    permutations and sign changes, one ray per +- pair (Peres, J. Phys. A
    24 (1991) L175)."""
    found: list[Ray] = []
    for base in ((1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 1)):
        for perm in itertools.permutations(base):
            for signs in itertools.product((1, -1), repeat=4):
                r = primitive([a * s for a, s in zip(perm, signs)])
                if r not in found:
                    found.append(r)
    return {f"P{i:02d}": r for i, r in enumerate(found, start=1)}


def binary_states(n: int) -> dict[str, Ray]:
    """The 2^n - 1 nonzero {0,1}^n vectors, labelled by their bits."""
    states = {}
    for bits in itertools.product((0, 1), repeat=n):
        if any(bits):
            states["s" + "".join(map(str, bits))] = bits
    return states


def pset_text(dim: int, rays: dict[str, Ray],
              contexts: dict[str, tuple[str, ...]] | None = None,
              states: dict[str, Ray] | None = None) -> str:
    lines = [f"dim {dim}"]
    lines += [f"vec {l} = {' '.join(map(str, r))}" for l, r in rays.items()]
    lines += [f"context {l} = {' '.join(m)}" for l, m in (contexts or {}).items()]
    lines += [f"state {l} = {' '.join(map(str, s))}"
              for l, s in (states or {}).items()]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# answer checks: each takes (exit status, parsed JSON report) and returns a
# list of problems, empty when the answer is right
# ---------------------------------------------------------------------------

Check = Callable[[int, dict], list[str]]


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def check_count(models: int) -> Check:
    def check(status: int, report: dict) -> list[str]:
        problems: list[str] = []
        _expect(problems, "exit status", status, 0)
        result = report.get("result", {})
        _expect(problems, "status", result.get("status"), "SAT")
        _expect(problems, "count", result.get("count"), models)
        return problems
    return check


def check_models(models: set[frozenset[str]], labels: set[str]) -> Check:
    """`color --mode all`: the witnesses are exactly `models` (sets of 1s)."""
    def check(status: int, report: dict) -> list[str]:
        problems: list[str] = []
        _expect(problems, "exit status", status, 0)
        result = report.get("result", {})
        _expect(problems, "status", result.get("status"), "SAT")
        _expect(problems, "count", result.get("count"), len(models))
        witnesses = result.get("witnesses") or []
        if any(set(w) != labels for w in witnesses):
            problems.append("a witness does not assign every label")
        got = [frozenset(l for l, v in w.items() if v == 1) for w in witnesses]
        _expect(problems, "witnesses", len(got), len(models))
        if set(got) != models or len(set(got)) != len(got):
            problems.append("witness set differs from the closed form")
        return problems
    return check


def check_unsat(status: int, report: dict) -> list[str]:
    problems: list[str] = []
    _expect(problems, "exit status", status, 0)
    _expect(problems, "status", report.get("result", {}).get("status"), "UNSAT")
    return problems


def check_verdicts(labels: set[str], verdict: str) -> Check:
    def check(status: int, report: dict) -> list[str]:
        problems: list[str] = []
        _expect(problems, "exit status", status, 0)
        verdicts = report.get("result", {}).get("verdicts", {})
        _expect(problems, "verdict labels", set(verdicts), labels)
        wrong = sorted(l for l, v in verdicts.items() if v != verdict)
        if wrong:
            problems.append(f"labels not {verdict}: {' '.join(wrong)}")
        return problems
    return check


def check_validate(contexts: dict[str, tuple[str, ...]]) -> Check:
    def check(status: int, report: dict) -> list[str]:
        problems: list[str] = []
        _expect(problems, "exit status", status, 0)
        result = report.get("result", {})
        _expect(problems, "valid_count", result.get("valid_count"), len(contexts))
        _expect(problems, "declared_count", result.get("declared_count"),
                len(contexts))
        found = [frozenset(c) for c in result.get("discovered_maximal", [])]
        _expect(problems, "discovered contexts", len(found), len(contexts))
        if set(found) != {frozenset(m) for m in contexts.values()}:
            problems.append("discovered contexts differ from the tetrads")
        return problems
    return check


def check_bivalent(state: Ray, rays: dict[str, Ray],
                   contexts: dict[str, tuple[str, ...]]) -> Check:
    def check(status: int, report: dict) -> list[str]:
        problems: list[str] = []
        _expect(problems, "exit status", status, 0)
        result = report.get("result", {})
        gaps = {l for l, r in rays.items() if bivalent_value(state, r) == "gap"}
        got_gaps = result.get("gaps", [])
        if set(got_gaps) != gaps or len(got_gaps) != len(gaps):
            problems.append(f"gaps {sorted(got_gaps)} != oracle {sorted(gaps)}")
        entries = result.get("contexts", [])
        _expect(problems, "contexts", [e.get("context") for e in entries],
                list(contexts))
        for e in entries:
            want = [bivalent_value(state, rays[m]) for m in e.get("members", [])]
            _expect(problems, f"values in {e.get('context')}", e.get("values"), want)
            total = "undefined" if "gap" in want else want.count("1")
            _expect(problems, f"sum in {e.get('context')}", e.get("sum"), total)
        return problems
    return check


def check_born(state: Ray, rays: dict[str, Ray],
               contexts: dict[str, tuple[str, ...]]) -> Check:
    def check(status: int, report: dict) -> list[str]:
        problems: list[str] = []
        _expect(problems, "exit status", status, 0)
        entries = report.get("result", {}).get("contexts", [])
        _expect(problems, "contexts", [e.get("context") for e in entries],
                list(contexts))
        for e in entries:
            want = [str(born_weight(state, rays[m])) for m in e.get("members", [])]
            _expect(problems, f"weights in {e.get('context')}",
                    e.get("weights"), want)
            _expect(problems, f"sum in {e.get('context')}", e.get("sum"), "1")
        return problems
    return check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Corpus:
    """One PSET file of a workload, with the facts set-up must reproduce."""

    name: str             # file stem
    text: str
    projectors: int
    declared: int         # declared contexts, all valid and maximal
    maximal: int          # maximal contexts the program must discover


@dataclass(frozen=True)
class Call:
    """One CLI call: `metric` names the timing it feeds, `{corpus}` in argv
    is replaced by that corpus file's path."""

    metric: str
    corpus: str
    argv: tuple[str, ...]
    check: Check


@dataclass(frozen=True)
class Workload:
    name: str
    corpora: tuple[Corpus, ...]
    calls: tuple[Call, ...]


def color_argv(mode: str) -> tuple[str, ...]:
    return ("color", "{corpus}", "--mode", mode, "--format", "json")


def _d8_setup(seed: int) -> Workload:
    rays = d_roots(8)
    corpus = Corpus("d8", pset_text(8, rays), len(rays), 0, double_factorial(7))
    return Workload("d8-setup", (corpus,),
                    (Call("color_count", "d8", color_argv("count"),
                          check_count(8 * 2 ** 7)),))


def triad_corpus(name: str, bases) -> tuple[Corpus, dict[str, Ray],
                                             dict[str, tuple[str, ...]]]:
    rays: dict[str, Ray] = {}
    contexts: dict[str, tuple[str, ...]] = {}
    for b, basis in enumerate(bases, start=1):
        members = []
        for i, r in enumerate(basis, start=1):
            rays[f"T{b:02d}_{i}"] = r
            members.append(f"T{b:02d}_{i}")
        contexts[f"T{b:02d}"] = tuple(members)
    return (Corpus(name, pset_text(3, rays, contexts), len(rays), len(contexts),
                   len(contexts)),
            rays, contexts)


def _triads_search(seed: int) -> Workload:
    bases = triads(TRIADS_COUNT_K, seed)
    big, big_rays, _ = triad_corpus("triads12", bases)
    small, small_rays, small_contexts = triad_corpus(
        "triads8", bases[:TRIADS_ALL_K])
    models = {frozenset(choice)
              for choice in itertools.product(*small_contexts.values())}
    return Workload("triads-search", (big, small), (
        Call("color_count", "triads12", color_argv("count"),
             check_count(3 ** TRIADS_COUNT_K)),
        Call("localize", "triads12", ("localize", "{corpus}", "--format", "json"),
             check_verdicts(set(big_rays), "unconstrained")),
        Call("color_all", "triads8", color_argv("all"),
             check_models(models, set(small_rays))),
    ))


def _peres_queries(seed: int) -> Workload:
    rays = peres24()
    tetrads = orthogonal_cliques(rays, 4)
    if len(tetrads) != 24:
        raise RuntimeError(f"Peres-24 has {len(tetrads)} tetrads, expected 24")
    contexts = {f"C{i:02d}": t for i, t in enumerate(tetrads, start=1)}
    states = binary_states(4)
    corpus = Corpus("peres24", pset_text(4, rays, contexts, states),
                    len(rays), len(contexts), len(contexts))
    calls = []
    for label, s in states.items():
        calls.append(Call("eval_bivalent", "peres24",
                          ("eval", "{corpus}", "--state", label,
                           "--semantics", "bivalent", "--format", "json"),
                          check_bivalent(s, rays, contexts)))
        calls.append(Call("eval_born", "peres24",
                          ("eval", "{corpus}", "--state", label,
                           "--semantics", "born", "--format", "json"),
                          check_born(s, rays, contexts)))
    calls += [
        Call("validate", "peres24", ("validate", "{corpus}", "--format", "json"),
             check_validate(contexts)),
        Call("color_first", "peres24", color_argv("first"), check_unsat),
        Call("localize", "peres24", ("localize", "{corpus}", "--format", "json"),
             check_verdicts(set(rays), "both-contradict")),
    ]
    return Workload("peres-queries", (corpus,), tuple(calls))


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "d8-setup": _d8_setup,
    "triads-search": _triads_search,
    "peres-queries": _peres_queries,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
