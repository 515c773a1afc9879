"""Projector families, context validity, and maximal-context discovery.

A context is a family of two or more mutually orthogonal projectors; it is
maximal when the members sum to the identity, which for mutually
orthogonal members means exactly that their ranks add up to the
dimension.  Contexts are referenced by projector label, never by matrix
copy, so a projector shared between two contexts keeps a single
identity — the structure a noncontextual value assignment quantifies
over.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Sequence

from .linalg import Projector, is_orthogonal


class UnknownLabelError(KeyError):
    """A referenced projector label is not present in the set."""


@dataclass(frozen=True)
class Context:
    """Ordered family of mutually orthogonal projectors, by label."""

    members: tuple[str, ...]
    maximal: bool
    label: str | None = None

    def display_name(self) -> str:
        return self.label or "{" + " ".join(self.members) + "}"


@dataclass(frozen=True)
class ContextReport:
    """Outcome of validating one candidate context."""

    members: tuple[str, ...]
    non_orthogonal_pairs: tuple[tuple[str, str], ...]
    maximal: bool

    @property
    def valid(self) -> bool:
        return not self.non_orthogonal_pairs


class ProjectorSet:
    """Labeled projectors on one ambient space, plus declared contexts.

    Declared contexts are *not* required to be valid at construction:
    reporting non-orthogonal pairs is `validate_context`'s job, and the
    command line needs to load broken files in order to complain about
    them.  Labels must resolve and contexts must have at least two
    members; everything else is checked lazily.

    Immutable: the orthogonality graph and maximal contexts are memoized,
    and each declared context's `ContextReport` is kept from loading.
    """

    __slots__ = ("dimension", "projectors", "contexts", "_reports", "_graph",
                 "_maximal")

    def __init__(self, dimension: int,
                 projectors: Mapping[str, Projector],
                 contexts: Sequence[Context | tuple] = ()):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = dimension
        self._graph = self._maximal = None
        owned: dict[str, Projector] = {}
        self.projectors: Mapping[str, Projector] = MappingProxyType(owned)
        for label, p in projectors.items():
            if p.dim != dimension:
                raise ValueError(
                    f"projector {label!r} lives on Q^{p.dim}, expected Q^{dimension}")
            owned[label] = p if p.label == label else p.relabel(label)
        reports: dict[tuple[str, ...], ContextReport] = {}
        self._reports = MappingProxyType(reports)   # members -> report
        normalized = []
        for ctx in contexts:
            if not isinstance(ctx, Context):
                name, members = ctx
                ctx = Context(tuple(members), maximal=False, label=name)
            missing = [m for m in ctx.members if m not in self.projectors]
            if missing:
                raise UnknownLabelError(missing[0])
            if len(ctx.members) < 2:
                raise ValueError(
                    f"context {ctx.display_name()} needs at least two members")
            report = reports[ctx.members] = validate_context(self, ctx.members)
            normalized.append(Context(ctx.members, report.maximal, ctx.label))
        self.contexts: tuple[Context, ...] = tuple(normalized)

    def __setattr__(self, name, value):
        if not name.startswith("_") and hasattr(self, name):
            raise AttributeError(f"ProjectorSet.{name} cannot be reassigned")
        object.__setattr__(self, name, value)

    def __reduce__(self):
        return ProjectorSet, (self.dimension, dict(self.projectors), self.contexts)

    def __getitem__(self, label: str) -> Projector:
        try:
            return self.projectors[label]
        except KeyError:
            raise UnknownLabelError(label) from None

    def __contains__(self, label: str) -> bool:
        return label in self.projectors

    def __len__(self) -> int:
        return len(self.projectors)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ProjectorSet)
            and self.dimension == other.dimension
            and self.projectors == other.projectors
            and list(self.projectors) == list(other.projectors)
            and self.contexts == other.contexts
        )

    def __repr__(self) -> str:
        return (f"ProjectorSet<dim {self.dimension}, "
                f"{len(self.projectors)} projectors, "
                f"{len(self.contexts)} contexts>")

    def context_named(self, name: str) -> Context:
        for ctx in self.contexts:
            if ctx.label == name:
                return ctx
        raise UnknownLabelError(name)


def validate_context(ps: ProjectorSet, labels: Iterable[str]) -> ContextReport:
    """Report every non-orthogonal pair and the maximality verdict.

    An empty pair list means the family is a valid context; `maximal` is
    claimed only for valid families whose members sum to the identity.
    A declared context's report is the one made when the set was loaded.
    """
    members = tuple(labels)
    if members in ps._reports:
        return ps._reports[members]
    projs = [ps[m] for m in members]
    bad = tuple(
        (members[i], members[j])
        for i in range(len(members))
        for j in range(i + 1, len(members))
        if not is_orthogonal(projs[i], projs[j])
    )
    maximal = not bad and _fills_space(ps, members)
    return ContextReport(members, bad, maximal)


def _fills_space(ps: ProjectorSet, members: Iterable[str]) -> bool:
    """For mutually orthogonal members: do they sum to the identity?  Their
    sum projects onto the direct sum of their ranges, so it is the
    identity exactly when the ranks add up to the dimension."""
    return sum(ps[m].rank for m in members) == ps.dimension


def is_maximal(ps: ProjectorSet, ctx: Context | Iterable[str]) -> bool:
    """True iff the members' matrices sum exactly to the identity.

    Decided as: pairwise orthogonal, and the ranks add up to the
    dimension.  The two agree: if the P_i sum to I, the ranks (traces) sum
    to d, and P_j = sum_i P_j P_i P_j makes the positive semidefinite
    P_j P_i P_j = (P_i P_j)^T (P_i P_j) vanish for every i != j.
    """
    members = ctx.members if isinstance(ctx, Context) else tuple(ctx)
    return validate_context(ps, members).maximal


def orthogonality_graph(ps: ProjectorSet) -> OrthogonalityGraph:
    """Adjacency of the (undirected) orthogonality relation between labels;
    computed once per set, read-only."""
    if ps._graph is not None:
        return ps._graph
    projectors = tuple(ps.projectors.values())
    bits = [0] * len(projectors)
    for i, p in enumerate(projectors):
        for j, q in enumerate(projectors[i + 1:], i + 1):
            if is_orthogonal(p, q):
                bits[i] |= 1 << j
                bits[j] |= 1 << i
    ps._graph = OrthogonalityGraph(tuple(ps.projectors), tuple(bits))
    return ps._graph


class OrthogonalityGraph(Mapping):
    """The orthogonality relation of a set, held once: bit j of `bits[i]`
    is set when the projectors at positions i and j of the set are
    orthogonal.  As a read-only mapping it gives each label the frozenset
    of its neighbours, decoded when read."""

    __slots__ = ("labels", "bits", "_position")

    def __init__(self, labels: tuple[str, ...], bits: tuple[int, ...]):
        self.labels = labels
        self.bits = bits
        self._position = {l: i for i, l in enumerate(labels)}

    def __getitem__(self, label: str) -> frozenset[str]:
        return frozenset(_members(self.labels, self.bits[self._position[label]]))

    def __iter__(self):
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def adjacency(self, order: Sequence[str]) -> tuple[int, ...]:
        """The neighbours of each label of `order` among `order`, as
        bitsets in which bit k stands for order[k]."""
        if not order:
            return ()
        positions = list(map(self._position.__getitem__, order))
        # a row's digits, lowest first, read at order's positions, highest first
        pick = itemgetter(*reversed(positions))
        width = len(self.labels)
        return tuple(int("".join(pick(_digits(self.bits[p], width))), 2)
                     for p in positions)


def _parts(rows: Sequence[int], mask: int) -> list[int]:
    """The connected components of the vertices in `mask`, as masks, in
    order of their lowest vertex; `rows[i]` holds vertex i's neighbours."""
    parts = []
    while mask:
        part = frontier = mask & -mask
        while frontier:
            reach = 0
            for row in _members(rows, frontier):
                reach |= row
            frontier = reach & mask & ~part
            part |= frontier
        mask &= ~part
        parts.append(part)
    return parts


# bin() digits, lowest bit first, as the bytes 0 and 1 for `compress`
_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _digits(bits: int, width: int) -> str:
    """Bits 0 to width - 1 of `bits`, lowest first, as '0' and '1'."""
    return bin(bits | 1 << width)[:2:-1]


def _members(items: Sequence, bits: int) -> Iterator:
    """The items at the positions of the set bits, in order."""
    return compress(items, bin(bits)[:1:-1].encode().translate(_FLAGS))


def _pivot(adj: Sequence[int], candidates: int, excluded: int) -> int:
    """The first vertex in set order among candidates and excluded with
    the most neighbours among the candidates.

    No vertex is its own neighbour, so a candidate has at most
    popcount(candidates) - 1 of them and an excluded vertex at most
    popcount(candidates); the scan stops once no later vertex can score
    more than the best so far, which keeps a long chain of nested cliques
    quadratic rather than cubic.
    """
    top = candidates.bit_count()
    last_excluded = excluded.bit_length() - 1
    best, best_score = -1, -1
    for v in _members(range(len(adj)), candidates | excluded):
        score = (adj[v] & candidates).bit_count()
        if score > best_score:
            best, best_score = v, score
        if best_score >= (top if v < last_excluded else top - 1):
            break
    return best


def find_maximal_contexts(ps: ProjectorSet) -> tuple[Context, ...]:
    """All maximal contexts hiding in the set.

    Enumerates inclusion-maximal cliques of the orthogonality graph
    (Bron-Kerbosch with pivoting, on its bitsets), then keeps those with
    at least two members whose ranks fill the space (the members of a
    clique are already pairwise orthogonal).  Output is deterministic:
    members sorted by label, contexts sorted by member tuple.  A clique
    matching a declared context is returned with the declared label and
    member order.  Computed once per set.
    """
    if ps._maximal is not None:
        return ps._maximal
    graph = orthogonality_graph(ps)
    adj = graph.bits
    cliques: list[int] = []
    # one frame per open call: [clique, candidates, excluded, branches
    # left]; a clique as deep as the set needs no Python recursion
    stack: list[list] = []

    def enter(clique: int, candidates: int, excluded: int):
        if not candidates and not excluded:
            cliques.append(clique)
            return
        pivot = _pivot(adj, candidates, excluded)
        stack.append([clique, candidates, excluded,
                      _members(range(len(adj)), candidates & ~adj[pivot])])

    enter(0, (1 << len(adj)) - 1, 0)
    while stack:
        frame = stack[-1]
        clique, candidates, excluded, branches = frame
        v = next(branches, None)
        if v is None:
            stack.pop()
            continue
        # the branch gets the sets as they were, v leaves this frame at once
        frame[1], frame[2] = candidates & ~(1 << v), excluded | (1 << v)
        enter(clique | (1 << v), candidates & adj[v], excluded & adj[v])

    declared = {frozenset(c.members): c for c in ps.contexts}
    found = []
    for clique in cliques:
        members = frozenset(_members(graph.labels, clique))
        if len(members) < 2 or not _fills_space(ps, members):
            continue
        if members in declared:
            found.append(declared[members])
        else:
            found.append(Context(tuple(sorted(members)), maximal=True,
                                 label=None))
    found.sort(key=lambda c: tuple(sorted(c.members)))
    ps._maximal = tuple(found)
    return ps._maximal
