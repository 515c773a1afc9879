"""Noncontextual {0,1} assignments: checking and exhaustive search.

An assignment is admissible when every maximal context hiding in the set
sums to exactly 1, any two orthogonal projectors carry at most one 1
(the sub-maximal exclusivity rule), and zero/identity projectors carry
their forced values.  `admissible_assignments` decides satisfiability by
backtracking with unit propagation on an explicit stack, so no recursion
limit bounds the number of variables; UNSAT answers are exhaustive-search
certificates, never heuristic.

The search may partition its top-level branches across worker processes,
at most one per CPU; where no pool can start it searches the same
branches serially and issues a RuntimeWarning.
Status, witness, model count and the witness list are identical for any
worker count; only `nodes_explored` depends on how the tree was split.
"""

from __future__ import annotations

import enum
import itertools
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Literal, Mapping

from .contexts import (Context, ProjectorSet, UnknownLabelError,
                       find_maximal_contexts, orthogonality_graph)

Mode = Literal["first", "all", "count"]


@dataclass(frozen=True)
class Assignment:
    """Map from projector label to 0 or 1; one value per label, no context index."""

    values: Mapping[str, int]

    def __post_init__(self):
        bad = {k: v for k, v in self.values.items() if v not in (0, 1)}
        if bad:
            raise ValueError(f"assignment values must be 0 or 1, got {bad}")

    def is_total_for(self, ps: ProjectorSet) -> bool:
        return set(self.values) >= set(ps.projectors)

    def __eq__(self, other) -> bool:
        return isinstance(other, Assignment) and dict(self.values) == dict(other.values)

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.values.items())))


@dataclass(frozen=True)
class Violation:
    """A broken admissibility rule, by `kind`: "context" (a maximal context
    holding two 1s, or complete with a sum other than 1), "pair" (two
    orthogonal 1s sharing no maximal context; `context` is the pair) or
    "forced" (a zero or identity projector with the wrong value; `context`
    is its one label and `assigned_sum` that value)."""

    context: Context
    assigned_sum: int
    kind: Literal["context", "pair", "forced"] = "context"


class InconsistentAssignmentError(ValueError):
    """A fixed assignment already breaks a context or an orthogonal pair."""

    def __init__(self, message: str, context: tuple[str, ...] | None = None):
        super().__init__(message)
        self.context = context


class PinVerdict(enum.Enum):
    """Fate of a projector once a partial assignment is fixed."""

    FORCED_ONE = "forced-1"
    FORCED_ZERO = "forced-0"
    BOTH_CONTRADICT = "both-contradict"
    UNCONSTRAINED = "unconstrained"


@dataclass(frozen=True)
class SearchResult:
    status: Literal["SAT", "UNSAT"]
    witness: Assignment | None
    nodes_explored: int
    count: int | None = None
    witnesses: tuple[Assignment, ...] | None = None
    violated_context: str | None = None          # display name, diagnostics only
    violated_members: tuple[str, ...] | None = None


def check_assignment(ps: ProjectorSet, assignment: Assignment | Mapping[str, int]
                     ) -> list[Violation]:
    """Every rule the assignment breaks, judged as the search judges it.

    A total assignment has no violations exactly when the search counts
    it admissible.  Partial assignments are allowed; a context with an
    unassigned member is undetermined unless it already holds two 1s.
    """
    values = _checked_values(ps, assignment)
    net = _build_network(ps)
    return list(_violations(net, [values.get(l) for l in net.labels]))


def _checked_values(ps: ProjectorSet, assignment: Assignment | Mapping[str, int]
                    ) -> dict[str, int]:
    """The values, once `Assignment` has checked them and every label is known."""
    if not isinstance(assignment, Assignment):
        assignment = Assignment(assignment)
    unknown = [k for k in assignment.values if k not in ps.projectors]
    if unknown:
        raise UnknownLabelError(unknown[0])
    return dict(assignment.values)


# ---------------------------------------------------------------------------
# constraint network + backtracking core
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Network:
    """Index-based view of the constraints; plain data so it pickles."""

    labels: tuple[str, ...]                 # decision order
    index: dict[str, int]                   # label -> position in labels
    # per var, its orthogonal neighbours in index order, each with the
    # first maximal context the two share (None: no shared context)
    pairs: tuple[tuple[tuple[int, int | None], ...], ...]
    maximal: tuple[Context, ...]
    contexts: tuple[tuple[int, ...], ...]   # members of `maximal`, by index
    contexts_of: tuple[tuple[int, ...], ...]
    forced: tuple[tuple[int, int], ...]     # (var, value) for zero/identity


def _build_network(ps: ProjectorSet) -> _Network:
    maximal = find_maximal_contexts(ps)
    graph = orthogonality_graph(ps)
    degree = {l: 0 for l in ps.projectors}
    for ctx in maximal:
        for m in ctx.members:
            degree[m] += 1
    # most-constrained labels first; pure performance, correctness is
    # order-independent and tested as such
    order = sorted(ps.projectors, key=lambda l: (-degree[l], l))
    index = {l: i for i, l in enumerate(order)}
    contexts = tuple(tuple(sorted(index[m] for m in ctx.members)) for ctx in maximal)
    contexts_of: list[list[int]] = [[] for _ in order]
    for ci, members in enumerate(contexts):
        for m in members:
            contexts_of[m].append(ci)
    pairs = []
    for l, in_contexts in zip(order, contexts_of):
        first_shared: dict[int, int] = {}   # co-member -> first context
        for c in in_contexts:
            for m in contexts[c]:
                first_shared.setdefault(m, c)
        pairs.append(tuple((j, first_shared.get(j))
                           for j in sorted(index[n] for n in graph[l])))
    # rank 0 is the zero projector, rank d the identity
    forced = tuple((index[l], int(p.rank > 0)) for l, p in ps.projectors.items()
                   if p.rank in (0, ps.dimension))
    return _Network(tuple(order), index, tuple(pairs), maximal, contexts,
                    tuple(tuple(c) for c in contexts_of), forced)


def _violations(net: _Network, values: list):
    """The rules `_assign` enforces, on values by index (None: unassigned):
    forced values, then orthogonal pairs of 1s sharing no maximal context,
    then maximal contexts.  A pair inside a context is reported as it."""
    for var, val in net.forced:
        if values[var] not in (None, val):
            yield Violation(Context((net.labels[var],), maximal=False),
                            values[var], "forced")
    for i, neighbours in enumerate(net.pairs):
        for j, shared in neighbours:
            if i < j and values[i] == values[j] == 1 and shared is None:
                yield Violation(Context((net.labels[i], net.labels[j]),
                                        maximal=False), 2, "pair")
    for ctx, members in zip(net.maximal, net.contexts):
        vals = [values[m] for m in members]
        ones = vals.count(1)
        if ones > 1 or (None not in vals and ones != 1):
            yield Violation(ctx, ones, "context")


def _assign(net: _Network, values: list, var: int, val: int, trail: list):
    """Assign and propagate; returns a conflicting context index, -1 for a
    conflict with no single context to blame, or None on success."""
    pairs, contexts, contexts_of = net.pairs, net.contexts, net.contexts_of
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
            for j, shared in pairs[i]:
                w = values[j]
                if w is None:
                    stack.append((j, 0, shared))
                elif w == 1:
                    return shared if shared is not None else -1
        for c in contexts_of[i]:
            ones = free = 0
            last_free = None
            for m in contexts[c]:
                x = values[m]
                if x is None:
                    free += 1
                    last_free = m
                elif x == 1:
                    ones += 1
            if ones > 1 or (not free and ones != 1):
                return c
            if ones == 0 and free == 1:
                stack.append((last_free, 1, c))
    return None


class _Acc:
    __slots__ = ("nodes", "count", "first", "solutions", "last_conflict")

    def __init__(self):
        self.nodes = 0
        self.count = 0
        self.first = None
        self.solutions = []
        self.last_conflict = None


def _record_solution(net: _Network, values, mode: Mode, acc: _Acc) -> bool:
    acc.count += 1
    if acc.first is None:
        acc.first = dict(zip(net.labels, values))
    if mode == "all":
        acc.solutions.append(dict(zip(net.labels, values)))
    return mode == "first"


def _dfs(net: _Network, values, mode: Mode, acc: _Acc) -> bool:
    """Depth-first over the lowest unassigned variable, value 1 before 0;
    True once `first` mode has its witness.

    Iterative: each frame is [var, next value to try, trail of the value
    being tried].  The decision variable is always the lowest unassigned
    index, so every index below a live frame's var stays assigned and
    the next one is searched for from var + 1.
    """
    n = len(values)
    stack: list[list] = []
    var = 0                      # every index below var is assigned
    while True:
        while var < n and values[var] is not None:
            var += 1
        if var < n:
            stack.append([var, 1, ()])
        elif _record_solution(net, values, mode, acc):
            return True
        # the next value of the deepest frame that has one left
        while stack:
            frame = stack[-1]
            var, val, trail = frame
            for i in trail:
                values[i] = None
            if val < 0:
                stack.pop()
                continue
            acc.nodes += 1
            frame[1] = val - 1
            frame[2] = trail = []
            conflict = _assign(net, values, var, val, trail)
            if conflict is None:
                break
            acc.last_conflict = conflict
        else:
            return False
        var += 1                 # var itself is now assigned


def _search_task(net: _Network, seed: tuple[tuple[int, int], ...], mode: Mode):
    """Exhaust the subtree under `seed`; module-level so pools can pickle it."""
    acc = _Acc()
    values: list = [None] * len(net.labels)
    trail: list[int] = []
    acc.nodes += 1
    conflict = None
    for var, val in seed:
        conflict = _assign(net, values, var, val, trail)
        if conflict is not None:
            acc.last_conflict = conflict
            break
    if conflict is None:
        _dfs(net, values, mode, acc)
    return acc.count, acc.first, acc.solutions, acc.nodes, acc.last_conflict


def _merge(net: _Network, parts, mode: Mode) -> SearchResult:
    count = 0
    witness = None
    solutions: list[dict] = []
    nodes = 0
    conflict = None
    for part_count, part_first, part_solutions, part_nodes, part_conflict in parts:
        count += part_count
        nodes += part_nodes
        if witness is None and part_first is not None:
            witness = part_first
        if mode == "all":
            solutions.extend(part_solutions)
        if part_conflict is not None:
            conflict = part_conflict
    violated_name = None
    violated_members = None
    if conflict is not None and conflict >= 0:
        violated_name = net.maximal[conflict].display_name()
        violated_members = tuple(net.labels[i] for i in net.contexts[conflict])
    return SearchResult(
        status="SAT" if count else "UNSAT",
        witness=Assignment(witness) if witness else None,
        nodes_explored=nodes,
        count=None if mode == "first" else count,
        witnesses=tuple(Assignment(s) for s in solutions) if mode == "all" else None,
        violated_context=violated_name,
        violated_members=violated_members,
    )


def _seed_from_fixed(net: _Network, fixed: Mapping[str, int]):
    return net.forced + tuple((net.index[l], v) for l, v in fixed.items())


def _pool_size(workers: int) -> int:
    """The requested worker count, capped at the machine's CPU count."""
    return min(workers, os.cpu_count() or 1)


def admissible_assignments(ps: ProjectorSet, mode: Mode = "first",
                           workers: int = 1,
                           fixed: Mapping[str, int] | None = None) -> SearchResult:
    """Search for total admissible assignments.

    mode="first" stops at the first witness (canonical order: labels by
    descending context-degree then name, value 1 tried before 0);
    "all" collects every witness; "count" counts them exhaustively.
    `fixed` pins labels before the search starts.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    workers = _pool_size(workers)
    fixed = _checked_values(ps, fixed or {})
    net = _build_network(ps)
    seed = _seed_from_fixed(net, fixed)

    if workers == 1 or len(net.labels) <= len(fixed):
        return _merge(net, [_search_task(net, seed, mode)], mode)

    # split on the first undecided decision variables, prefixes in DFS order
    decided = {var for var, _ in seed}
    free = [i for i in range(len(net.labels)) if i not in decided]
    depth = min(len(free), max(1, (workers - 1).bit_length()))
    prefixes = [
        seed + tuple(zip(free[:depth], combo))
        for combo in itertools.product((1, 0), repeat=depth)
    ]
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_search_task, itertools.repeat(net),
                                  prefixes, itertools.repeat(mode)))
    except (OSError, PermissionError) as err:
        # sandboxed environments may forbid subprocesses; same partition,
        # same merge, identical results
        warnings.warn(f"worker pool unavailable ({err!r}); searching the "
                      f"{len(prefixes)} prefixes serially", RuntimeWarning,
                      stacklevel=2)
        parts = [_search_task(net, prefix, mode) for prefix in prefixes]
    return _merge(net, parts, mode)


def _validate_fixed_locally(net: _Network, fixed: Mapping[str, int]) -> None:
    """Raise on the first rule the fixed values already break."""
    for v in _violations(net, [fixed.get(l) for l in net.labels]):
        members = v.context.members
        if v.kind == "forced":
            val = 1 - v.assigned_sum
            raise InconsistentAssignmentError(
                f"{members[0]} is the {'identity' if val else 'zero'} projector and "
                f"must carry value {val}")
        blamed = (tuple(sorted(members, key=net.index.__getitem__))
                  if v.kind == "context" else None)
        ones = [l for l in fixed if l in members and fixed[l] == 1]
        if len(ones) > 1:
            raise InconsistentAssignmentError(
                f"orthogonal projectors {ones[0]} and {ones[1]} both fixed to 1",
                context=blamed)
        raise InconsistentAssignmentError(
            f"context {v.context.display_name()} fixed to sum {v.assigned_sum}, "
            f"expected 1", context=blamed)


def localized_indefiniteness_certificate(
        ps: ProjectorSet, fixed: Mapping[str, int] | None = None
) -> dict[str, PinVerdict]:
    """Classify every unfixed label by pinning it to 1 and to 0.

    A pin is satisfiable when some admissible assignment extends `fixed`
    and the pin; a label whose both pins are UNSAT is value indefinite
    given the fixings.  Every witness found shows each of its values
    satisfiable, so a pin that an earlier witness covers needs no search,
    and when `fixed` alone is UNSAT so is every pin.
    An inconsistent `fixed` is reported, not silently repaired.
    """
    fixed = _checked_values(ps, fixed or {})
    net = _build_network(ps)
    _validate_fixed_locally(net, fixed)
    witnessed: set[tuple[str, int]] = set()   # (label, value) pairs seen SAT

    def find_witness(pins: Mapping[str, int]) -> bool:
        _, first, _, _, _ = _search_task(net, _seed_from_fixed(net, pins), "first")
        witnessed.update((first or {}).items())
        return first is not None

    consistent = find_witness(fixed)

    def satisfiable(label: str, value: int) -> bool:
        return (label, value) in witnessed or (
            consistent and find_witness({**fixed, label: value}))

    verdicts: dict[str, PinVerdict] = {}
    for label in sorted(ps.projectors):
        if label in fixed:
            continue
        sat_one = satisfiable(label, 1)
        sat_zero = satisfiable(label, 0)
        if sat_one and sat_zero:
            verdicts[label] = PinVerdict.UNCONSTRAINED
        elif sat_one:
            verdicts[label] = PinVerdict.FORCED_ONE
        elif sat_zero:
            verdicts[label] = PinVerdict.FORCED_ZERO
        else:
            verdicts[label] = PinVerdict.BOTH_CONTRADICT
    return verdicts
