"""Seeded random generators and independent brute-force oracles.

The oracles deliberately avoid the library's search and clique code:
maximal contexts come from subset enumeration, admissibility counts from
full 2^n enumeration over bitmasks, the search tree from a recursive
copy of the kernel that takes orthogonality from the set's graph and
shared contexts from the network's context lists, pair by pair, the
cached model count from a recursive copy of the component counter, the
clique enumeration from a recursive copy of Bron-Kerbosch, and the state
valuations from the projector's matrix applied to the state.  They
exist so the fast paths have something slower and dumber to agree with.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import combinations, permutations, product
from random import Random
from typing import Sequence

from kscontext import (Context, Matrix, ProjectorSet, Subspace, TruthValue,
                       Vector, orthogonality_graph, projector_from_span)


def random_fraction(rng: Random, span: int = 3, max_den: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def random_vector(rng: Random, dim: int, nonzero: bool = True) -> Vector:
    while True:
        v = Vector(random_fraction(rng) for _ in range(dim))
        if not nonzero or not v.is_zero():
            return v


def random_subspace(rng: Random, dim: int) -> Subspace:
    k = rng.randint(0, dim)
    return Subspace.from_span([random_vector(rng, dim, nonzero=False)
                               for _ in range(k)], dim_ambient=dim)


def gram_schmidt(vectors: list[Vector]) -> list[Vector]:
    """Unnormalized exact Gram-Schmidt; zero residuals are dropped."""
    ortho: list[Vector] = []
    for v in vectors:
        u = v
        for w in ortho:
            u = u - (v.dot(w) / w.dot(w)) * w
        if not u.is_zero():
            ortho.append(u)
    return ortho


def random_orthogonal_basis(rng: Random, dim: int,
                            containing: list[Vector] | None = None) -> list[Vector]:
    """A full orthogonal basis of Q^dim, optionally extending given rays."""
    fixed = list(containing or [])
    while True:
        candidates = fixed + [random_vector(rng, dim) for _ in range(2 * dim)]
        basis = gram_schmidt(candidates)
        if len(basis) == dim:
            return basis[:dim]


def random_ray_corpus(rng: Random, dim: int, max_rays: int = 12) -> ProjectorSet:
    """Rank-1 projector set with overlapping orthogonal bases.

    Mixes whole bases (so maximal contexts exist), bases sharing a ray or
    two (so projectors live in several contexts), and a few generic rays.
    Rays proportional to an earlier one are dropped.
    """
    rays: list[Vector] = []
    seen: set[Matrix] = set()

    def push(v: Vector) -> None:
        if len(rays) >= max_rays:
            return
        p = projector_from_span([v])
        if p.matrix in seen:
            return
        seen.add(p.matrix)
        rays.append(v)

    n_bases = rng.randint(0, 3)
    for b in range(n_bases):
        if rays and rng.random() < 0.6:
            shared = [rng.choice(rays)]
            if len(rays) > 1 and rng.random() < 0.3:
                second = rng.choice(rays)
                if shared[0].dot(second) == 0 and shared[0] != second:
                    shared.append(second)
            basis = random_orthogonal_basis(rng, dim, containing=shared)
        else:
            basis = random_orthogonal_basis(rng, dim)
        for v in basis:
            push(v)
    for _ in range(rng.randint(0, 3)):
        push(random_vector(rng, dim))
    if not rays:
        push(random_vector(rng, dim))
    projectors = {f"r{i}": projector_from_span([v], f"r{i}")
                  for i, v in enumerate(rays, start=1)}
    return ProjectorSet(dim, projectors)


def random_split_corpus(rng: Random, dim: int, max_rays: int = 6) -> ProjectorSet:
    """Two or three `random_ray_corpus` sets on one space under shuffled
    labels, so that their labels interleave in decision order.  A ray
    proportional to an earlier one is dropped.  Rays of different sets
    may still be orthogonal, so count the components before relying on
    them."""
    projectors: list = []
    for _ in range(rng.randint(2, 3)):
        for p in random_ray_corpus(rng, dim, max_rays).projectors.values():
            if p not in projectors:
                projectors.append(p)
    names = [f"r{i:02d}" for i in range(len(projectors))]
    rng.shuffle(names)
    return ProjectorSet(dim, dict(zip(names, projectors)))


def random_pset_text(rng: Random) -> str:
    """A small random PSET file: vectors, maybe a span, maybe a context."""
    dim = rng.randint(2, 5)
    lines = [f"dim {dim}"]
    n = rng.randint(1, 6)
    labels = [f"v{i}" for i in range(n)]
    for label in labels:
        vec = random_vector(rng, dim)
        lines.append(f"vec {label} = " + " ".join(str(e) for e in vec.entries))
    span_members = ()
    if n >= 2 and rng.random() < 0.4:
        span_members = tuple(rng.sample(labels, 2))
        lines.append(f"span sp = {span_members[0]} {span_members[1]}")
    available = [l for l in labels if l not in span_members]
    if span_members:
        available.append("sp")
    if len(available) >= 2 and rng.random() < 0.6:
        members = rng.sample(available, 2)
        lines.append(f"context C = {members[0]} {members[1]}")
    if rng.random() < 0.5:
        vec = random_vector(rng, dim)
        lines.append("state s = " + " ".join(str(e) for e in vec.entries))
    return "\n".join(lines) + "\n"


def peres24() -> ProjectorSet:
    """Peres' 24 rays in Q^4: (1,0,0,0), (1,1,0,0) and (1,1,1,1) under
    coordinate permutations and sign changes, up to sign.  36 of its
    orthogonal pairs lie in two of its 24 maximal contexts."""
    rays = set()
    for base in ((1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 1)):
        for perm in permutations(base):
            for signs in product((1, -1), repeat=4):
                ray = tuple(s * x for s, x in zip(signs, perm))
                lead = next(x for x in ray if x)
                rays.add(tuple(lead * x for x in ray))
    return ProjectorSet(4, {f"p{i:02d}": projector_from_span([r])
                            for i, r in enumerate(sorted(rays))})


def d_roots(n: int) -> ProjectorSet:
    """The D_n root rays e_i + e_j and e_i - e_j (i < j) in Q^n; D_8 has
    56 of them and 105 maximal contexts, one per perfect matching."""
    rays = {}
    for i, j in combinations(range(n), 2):
        for s in (1, -1):
            v = [0] * n
            v[i], v[j] = 1, s
            rays[f"r{i}{'+' if s > 0 else '-'}{j}"] = projector_from_span([v])
    return ProjectorSet(n, rays)


def cube_ray_sample(seed: int = 2, k: int = 90) -> ProjectorSet:
    """k of the 145 primitive rays of Q^3 with entries in -3..3 and a
    positive first nonzero entry, in `itertools.product` order, drawn by
    `Random(seed).sample` and labelled r000, r001, ...  The default set
    is SAT with 202 edges and only 7 maximal contexts, yet
    36,836,825,026,338 models: a counter walks 688,236 nodes for what
    `localize` settles in milliseconds."""
    rays = [v for v in product(range(-3, 4), repeat=3)
            if any(v) and math.gcd(*v) == 1 and next(x for x in v if x) > 0]
    return ProjectorSet(3, {f"r{i:03d}": projector_from_span([v])
                            for i, v in enumerate(Random(seed).sample(rays, k))})


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------

def _rref_rows(rows: Sequence[Sequence[Fraction]], ncols: int):
    """Reduced row echelon form of a row list.

    Returns (nonzero reduced rows, pivot column per row).  Pivot columns
    are strictly increasing, pivots are 1, and pivot columns are cleared
    above and below, which makes the output unique for a given row space.
    """
    work = [list(r) for r in rows]
    pivots: list[int] = []
    pivot_row = 0
    for col in range(ncols):
        hit = next((i for i in range(pivot_row, len(work)) if work[i][col] != 0), None)
        if hit is None:
            continue
        work[pivot_row], work[hit] = work[hit], work[pivot_row]
        lead = work[pivot_row][col]
        if lead != 1:
            work[pivot_row] = [e / lead for e in work[pivot_row]]
        for i in range(len(work)):
            if i != pivot_row and work[i][col] != 0:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[pivot_row])]
        pivots.append(col)
        pivot_row += 1
        if pivot_row == len(work):
            break
    reduced = [tuple(r) for r in work[: len(pivots)]]
    return reduced, pivots


def fraction_span(rows, ncols: int) -> list[tuple[Fraction, ...]]:
    """The RREF basis of span(rows), by Fraction elimination."""
    return _rref_rows([[Fraction(x) for x in r] for r in rows], ncols)[0]


def fraction_null_space(rows, ncols: int) -> list[tuple[Fraction, ...]]:
    """The RREF basis of all v with r . v = 0 for every row r: one vector
    per free column of the rows' RREF, re-reduced."""
    reduced, pivots = _rref_rows([[Fraction(x) for x in r] for r in rows],
                                 ncols)
    basis = []
    for f in range(ncols):
        if f not in pivots:
            v = [Fraction(0)] * ncols
            v[f] = Fraction(1)
            for row, p in zip(reduced, pivots):
                v[p] = -row[f]
            basis.append(v)
    return fraction_span(basis, ncols)


def matrix_bivalent(state: Vector, p) -> TruthValue:
    """TRUE when P v = v, FALSE when P v = 0, GAP otherwise."""
    image = p.matrix @ state
    if image == state:
        return TruthValue.TRUE
    if image.is_zero():
        return TruthValue.FALSE
    return TruthValue.GAP


def matrix_born(state: Vector, p) -> Fraction:
    """<v|P|v> / <v|v> with the matrix product."""
    return state.dot(p.matrix @ state) / state.dot(state)


def recursive_maximal_contexts(ps: ProjectorSet) -> tuple[Context, ...]:
    """`find_maximal_contexts` with Bron-Kerbosch as plain recursion and the
    pivot taken by `max` over every vertex: the maximal cliques whose
    ranks fill the space, declared labels first, sorted by members."""
    adj = orthogonality_graph(ps)
    cliques: list[frozenset[str]] = []

    def extend(clique, candidates, excluded):
        if not candidates and not excluded:
            cliques.append(frozenset(clique))
            return
        pivot = max(sorted(candidates | excluded),
                    key=lambda v: len(adj[v] & candidates))
        for v in sorted(candidates - adj[pivot]):
            extend(clique | {v}, candidates & adj[v], excluded & adj[v])
            candidates.remove(v)
            excluded.add(v)

    extend(set(), set(ps.projectors), set())
    declared = {frozenset(c.members): c for c in ps.contexts}
    found = []
    for clique in cliques:
        if len(clique) < 2 or \
                sum(ps[m].rank for m in clique) != ps.dimension:
            continue
        found.append(declared.get(clique) or
                     Context(tuple(sorted(clique)), maximal=True))
    found.sort(key=lambda c: tuple(sorted(c.members)))
    return tuple(found)


def brute_orthogonal_pairs(ps: ProjectorSet) -> set[frozenset[str]]:
    labels = list(ps.projectors)
    pairs = set()
    for a, b in combinations(labels, 2):
        if (ps[a].matrix @ ps[b].matrix).is_zero() and \
                (ps[b].matrix @ ps[a].matrix).is_zero():
            pairs.add(frozenset((a, b)))
    return pairs


def graph_components(ps: ProjectorSet, order) -> list[tuple[str, ...]]:
    """Connected components of the orthogonality relation found with
    matrix products, each listed in `order` (every label once), ordered
    by their first label in it."""
    component = {l: frozenset((l,)) for l in order}
    for a, b in (tuple(p) for p in brute_orthogonal_pairs(ps)):
        merged = component[a] | component[b]
        for l in merged:
            component[l] = merged
    found: list[tuple[str, ...]] = []
    placed: set[str] = set()
    for l in order:
        if l not in placed:
            placed |= component[l]
            found.append(tuple(m for m in order if m in component[l]))
    return found


def brute_maximal_contexts(ps: ProjectorSet) -> set[frozenset[str]]:
    """Identity-summing orthogonal families by subset enumeration,
    restricted to inclusion-maximal cliques."""
    labels = list(ps.projectors)
    pairs = brute_orthogonal_pairs(ps)
    ident = Matrix.identity(ps.dimension)
    hits = []
    for r in range(2, len(labels) + 1):
        for combo in combinations(labels, r):
            if any(frozenset(p) not in pairs for p in combinations(combo, 2)):
                continue
            total = Matrix.zero(ps.dimension)
            for m in combo:
                total = total + ps[m].matrix
            if total == ident:
                hits.append(frozenset(combo))
    return {h for h in hits if not any(h < other for other in hits)}


def brute_admissible(ps: ProjectorSet):
    """(model count, frozenset of 1-labels per model) by 2^n enumeration."""
    labels = list(ps.projectors)
    n = len(labels)
    index = {l: i for i, l in enumerate(labels)}
    pair_masks = [(1 << index[a]) | (1 << index[b])
                  for a, b in (tuple(p) for p in brute_orthogonal_pairs(ps))]
    ctx_masks = [sum(1 << index[m] for m in ctx)
                 for ctx in brute_maximal_contexts(ps)]
    forced_one = 0
    forced_zero = 0
    ident = Matrix.identity(ps.dimension)
    for l, p in ps.projectors.items():
        if p.matrix.is_zero():
            forced_zero |= 1 << index[l]
        elif p.matrix == ident:
            forced_one |= 1 << index[l]
    models = []
    for bits in range(1 << n):
        if bits & forced_zero or (bits & forced_one) != forced_one:
            continue
        if any((bits & m) == m for m in pair_masks):
            continue
        if any(bin(bits & m).count("1") != 1 for m in ctx_masks):
            continue
        models.append(frozenset(l for l in labels if bits >> index[l] & 1))
    return len(models), set(models)


def oracle_adjacency(ps: ProjectorSet, net) -> list[list[int]]:
    """Orthogonal neighbours of each network variable, in index order."""
    graph = orthogonality_graph(ps)
    return [sorted(net.index[n] for n in graph[l]) for l in net.labels]


def first_shared_context(net, i: int, j: int) -> int | None:
    """The lowest-numbered maximal context holding both variables."""
    for c in net.contexts_of[i]:
        if c in net.contexts_of[j]:
            return c
    return None


def oracle_assign(ps: ProjectorSet, net):
    """Unit propagation on a list of values by decision index (None for
    unassigned) that looks up orthogonal neighbours in the set's graph,
    the context two of them share pair by pair, and each context's
    members by label, not through the network's bitsets.  The function
    returned assigns `val` to `var`, appends every index it assigns to
    `trail`, and returns the conflict as `search._assign` does."""
    adjacency = oracle_adjacency(ps, net)
    common_context = functools.partial(first_shared_context, net)
    members = [[net.index[m] for m in ctx.members] for ctx in net.maximal]

    def assign(values, var, val, trail):
        stack = [(var, val, None)]
        while stack:
            i, v, why = stack.pop()
            cur = values[i]
            if cur is not None:
                if cur != v:
                    return why if why is not None else -1
                continue
            values[i] = v
            trail.append(i)
            if v == 1:
                for j in adjacency[i]:
                    w = values[j]
                    if w is None:
                        stack.append((j, 0, common_context(i, j)))
                    elif w == 1:
                        c = common_context(i, j)
                        return c if c is not None else -1
            for c in net.contexts_of[i]:
                ones = 0
                unassigned = []
                for m in members[c]:
                    x = values[m]
                    if x is None:
                        unassigned.append(m)
                    elif x == 1:
                        ones += 1
                if ones > 1 or (not unassigned and ones != 1):
                    return c
                if ones == 0 and len(unassigned) == 1:
                    stack.append((unassigned[0], 1, c))
        return None

    return assign


def recursive_search_task(ps: ProjectorSet, net, seed, mode: str):
    """The search kernel as plain recursion, for `search._search_task` to
    agree with in `first` and `all` mode: same return value, same tree,
    same node count.  In `count` mode it walks every model, so it gives
    the plain count.

    Depth-first over the lowest unassigned variable, value 1 before 0,
    with `oracle_assign`'s propagation.  Recurses once per decision
    level, so it suits small networks only.
    """
    assign = oracle_assign(ps, net)
    acc = {"nodes": 0, "count": 0, "first": None, "solutions": [],
           "last_conflict": None}

    def record_solution(values):
        acc["count"] += 1
        if acc["first"] is None:
            acc["first"] = {net.labels[i]: values[i] for i in range(len(values))}
        if mode == "all":
            acc["solutions"].append(tuple(values))
        return mode == "first"

    def dfs(values):
        var = next((i for i, v in enumerate(values) if v is None), None)
        if var is None:
            return record_solution(values)
        for val in (1, 0):
            acc["nodes"] += 1
            trail = []
            conflict = assign(values, var, val, trail)
            if conflict is None:
                if dfs(values):
                    return True
            else:
                acc["last_conflict"] = conflict
            for i in trail:
                values[i] = None
        return False

    values = [None] * len(net.labels)
    acc["nodes"] += 1
    conflict = None
    for var, val in seed:
        conflict = assign(values, var, val, [])
        if conflict is not None:
            acc["last_conflict"] = conflict
            break
    if conflict is None:
        dfs(values)
    return (acc["count"], acc["first"], acc["solutions"], acc["nodes"],
            acc["last_conflict"])


def recursive_component_count(ps: ProjectorSet, net, seed):
    """`search._search_task` in `count` mode as plain recursion on the
    state the search reached: same return value, same node count, same
    last conflict.

    `recursive_search_task` in `first` mode, then, when it found a
    witness, the count of the seed's free variables: the product, up to
    the first 0, of the counts of their connected components in the set's
    graph, in order of their lowest index.  A component is counted by
    assigning its lowest variable 1, then 0, with `oracle_assign` and
    undo, and remembered by its set of variables.
    """
    count, first, _, nodes, conflict = recursive_search_task(ps, net, seed, "first")
    if not count:
        return 0, None, [], nodes, conflict
    assign = oracle_assign(ps, net)
    adjacency = oracle_adjacency(ps, net)
    values = [None] * len(net.labels)
    for var, val in seed:
        assert assign(values, var, val, []) is None
    acc = {"nodes": nodes, "last_conflict": conflict}
    remembered: dict[frozenset[int], int] = {}

    def components(free):
        found = []
        for v in sorted(free):
            if any(v in part for part in found):
                continue
            part, todo = {v}, [v]
            while todo:
                for j in adjacency[todo.pop()]:
                    if j in free and j not in part:
                        part.add(j)
                        todo.append(j)
            found.append(frozenset(part))
        return found

    def count_free(free):
        product = 1
        for part in components(free):
            product *= count_component(part)
            if not product:
                break
        return product

    def count_component(part):
        if part not in remembered:
            total = 0
            for val in (1, 0):
                acc["nodes"] += 1
                trail = []
                found = assign(values, min(part), val, trail)
                if found is None:
                    total += count_free({i for i in part if values[i] is None})
                else:
                    acc["last_conflict"] = found
                for i in trail:
                    values[i] = None
            remembered[part] = total
        return remembered[part]

    total = count_free({i for i, v in enumerate(values) if v is None})
    return total, first, [], acc["nodes"], acc["last_conflict"]
