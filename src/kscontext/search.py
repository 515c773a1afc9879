"""Noncontextual {0,1} assignments: checking and exhaustive search.

An assignment is admissible when every maximal context hiding in the set
sums to exactly 1, any two orthogonal projectors carry at most one 1
(the sub-maximal exclusivity rule), and zero/identity projectors carry
their forced values.  `admissible_assignments` decides satisfiability by
backtracking with unit propagation on an explicit stack, so no recursion
limit bounds the number of variables; UNSAT answers are exhaustive-search
certificates, never heuristic.

Every constraint lives inside one connected component of the
orthogonality graph (a maximal context is a clique, a forced value
touches one projector).  So the search builds one constraint network per
component from the set's one graph and its maximal contexts, searches
each on its own and combines them: UNSAT iff some component is UNSAT,
the model count is the product of the component counts, and the
witnesses are the Cartesian product of the component witnesses, in the
order a single search over the whole set finds them.  A SAT result
always has a witness, the empty one for an empty set.  `nodes_explored`
is one root for the whole search plus, for every component searched,
its nodes less its own root.  Components are searched in order of their
lowest decision index, up to the first UNSAT one; `violated_context` is
the last conflict of the last component that had one.

A network holds its constraints as int bitsets in which bit k stands for
the variable at decision index k: each variable's orthogonal neighbours,
each maximal context's members.  The search state is two such ints, the
assigned variables and those assigned 1.  A choice point saves the two,
so backtracking restores them and nothing is undone.  The context to
blame for a 0 that a 1 forced on its neighbour is looked up only when
that 0 conflicts.

`count` first walks as `first` does: on an UNSAT component that is the
whole tree, so `nodes_explored` and the last conflict are those of a
walk over every model.  Once it has a witness it counts from the same
propagated state by components (Bayardo & Pehoushek, AAAI 2000): the
free variables split into connected components whose counts multiply,
and each component is counted once per search, then cached by its mask.
Its `nodes_explored` counts the walk and each decision of the counting,
so D8's root rays take 262 nodes for their 1024 models.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Literal, Mapping

from .contexts import (Context, ProjectorSet, UnknownLabelError, _digits,
                       _members, _parts, find_maximal_contexts,
                       orthogonality_graph)

Mode = Literal["first", "all", "count"]

_BITS = frozenset((0, 1))


@dataclass(frozen=True)
class Assignment:
    """Map from projector label to 0 or 1; one value per label, no context index."""

    values: Mapping[str, int]

    def __post_init__(self):
        try:
            if _BITS.issuperset(self.values.values()):   # in C
                return
        except TypeError:       # an unhashable value, judged below
            pass
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
    return list(_violations(_whole_network(ps, _plan(ps)), values))


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
    """The constraints on variables by decision index, as bitsets in which
    bit k stands for the variable at index k."""

    labels: tuple[str, ...]                 # decision order
    index: dict[str, int]                   # label -> position in labels
    adj: tuple[int, ...]                    # per var, its orthogonal neighbours
    maximal: tuple[Context, ...]
    contexts: tuple[int, ...]               # member mask of each of `maximal`
    contexts_of: tuple[tuple[int, ...], ...]  # per var, its contexts, ascending
    forced: tuple[tuple[int, int], ...]     # (var, value) for zero/identity


def _plan(ps: ProjectorSet):
    """What every network of the set is built from: its orthogonality
    graph, its maximal contexts, for each label the indices of the
    contexts holding it, and each label's place in the decision order.
    One call each of `orthogonality_graph` and `find_maximal_contexts`
    per search."""
    maximal = find_maximal_contexts(ps)
    holding: dict[str, list[int]] = {l: [] for l in ps.projectors}
    for c, ctx in enumerate(maximal):
        for m in ctx.members:
            holding[m].append(c)
    # most-constrained labels first; pure performance, correctness is
    # order-independent and tested as such
    order = sorted(ps.projectors, key=lambda l: (-len(holding[l]), l))
    return (orthogonality_graph(ps), maximal, holding,
            {l: i for i, l in enumerate(order)})


def _build_network(ps: ProjectorSet, plan, labels: tuple[str, ...]) -> _Network:
    """The network on `labels` (in set order), whole connected components
    of the graph, in the set's relative decision order."""
    graph, all_maximal, holding, rank = plan
    order = sorted(labels, key=rank.__getitem__)
    index = {l: i for i, l in enumerate(order)}
    ids = sorted({c for l in labels for c in holding[l]})
    local = {c: k for k, c in enumerate(ids)}
    maximal = tuple(all_maximal[c] for c in ids)
    contexts = tuple(sum(1 << index[m] for m in ctx.members) for ctx in maximal)
    contexts_of = tuple(tuple(map(local.__getitem__, holding[l])) for l in order)
    # rank 0 is the zero projector, rank d the identity
    forced = tuple((index[l], int(ps[l].rank > 0)) for l in labels
                   if ps[l].rank in (0, ps.dimension))
    return _Network(tuple(order), index, graph.adjacency(order), maximal,
                    contexts, contexts_of, forced)


def _whole_network(ps: ProjectorSet, plan) -> _Network:
    """The network of every label, whose rules run in the whole set's
    order; `check_assignment` and the check of `fixed` judge on it."""
    return _build_network(ps, plan, tuple(ps.projectors))


def _components(ps: ProjectorSet, plan) -> list[_Network]:
    """One network per connected component of the orthogonality graph, in
    order of the component's lowest decision index.  No rule crosses a
    component: a maximal context is a clique, a pair an edge."""
    graph, *_, rank = plan
    nets = [_build_network(ps, plan, part) for part in graph.components()]
    return sorted(nets, key=lambda net: rank[net.labels[0]])


def _violations(net: _Network, values: Mapping[str, int]):
    """The rules `_assign` enforces, on values by label (a label left out is
    unassigned): forced values, then orthogonal pairs of 1s sharing no
    maximal context, then maximal contexts.  A pair inside a context is
    reported as it."""
    assigned = ones = 0
    for label, value in values.items():
        assigned |= 1 << net.index[label]
        ones |= value << net.index[label]
    for var, val in net.forced:
        if assigned >> var & 1 and ones >> var & 1 != val:
            yield Violation(Context((net.labels[var],), maximal=False),
                            1 - val, "forced")
    every = range(len(net.labels))
    for i in _members(every, ones):
        for j in _members(every, net.adj[i] & ones & -(2 << i)):   # j > i
            if _shared(net, i, j) < 0:
                yield Violation(Context((net.labels[i], net.labels[j]),
                                        maximal=False), 2, "pair")
    for ctx, mask in zip(net.maximal, net.contexts):
        count = (mask & ones).bit_count()
        if count > 1 or (not mask & ~assigned and count != 1):
            yield Violation(ctx, count, "context")


def _shared(net: _Network, i: int, j: int) -> int:
    """The first maximal context holding both variables, -1 if none does."""
    for c in net.contexts_of[i]:
        if net.contexts[c] >> j & 1:
            return c
    return -1


def _assign(net: _Network, assigned: int, ones: int, var: int, val: int):
    """Assign and propagate from the state (assigned, ones); returns the
    conflict and the state reached.  The conflict is a context index, -1
    when no single context is to blame, or None on success."""
    adj, contexts, contexts_of = net.adj, net.contexts, net.contexts_of
    every = range(len(adj))
    # each entry's cause: None for `var`, the context of a unit 1, and for
    # a 0 the neighbour whose 1 forced it
    stack = [(var, val, None)]
    while stack:
        i, v, why = stack.pop()
        if assigned >> i & 1:
            if ones >> i & 1 == v:
                continue
            if why is None:
                return -1, assigned, ones
            return (why if v else _shared(net, why, i)), assigned, ones
        assigned |= 1 << i
        if v:
            ones |= 1 << i
            clash = adj[i] & ones
            if clash:       # blame the lowest neighbour already 1
                return (_shared(net, i, (clash & -clash).bit_length() - 1),
                        assigned, ones)
            stack.extend((j, 0, i) for j in _members(every, adj[i] & ~assigned))
        for c in contexts_of[i]:
            on, free = contexts[c] & ones, contexts[c] & ~assigned
            if on & (on - 1) or not (on or free):
                return c, assigned, ones
            if not on and not free & (free - 1):
                stack.append((free.bit_length() - 1, 1, c))
    return None, assigned, ones


class _Acc:
    __slots__ = ("nodes", "count", "first", "solutions", "last_conflict")

    def __init__(self):
        self.nodes = 0
        self.count = 0
        self.first = None
        self.solutions = []
        self.last_conflict = None


def _record_solution(net: _Network, ones: int, mode: Mode, acc: _Acc) -> bool:
    acc.count += 1
    if acc.first is None or mode == "all":
        values = tuple(map(int, _digits(ones, len(net.labels))))
        if acc.first is None:
            acc.first = dict(zip(net.labels, values))
        if mode == "all":
            acc.solutions.append(values)
    return mode == "first"


def _dfs(net: _Network, assigned: int, ones: int, mode: Mode, acc: _Acc) -> bool:
    """Depth-first over the lowest unassigned variable, value 1 before 0;
    True once `first` mode has its witness.

    Iterative: each frame is [var, next value to try, assigned, ones], the
    state before var was decided, so each value is tried from the frame's
    state and backtracking needs no undo.
    """
    n = len(net.labels)
    stack: list[list] = []
    while True:
        var = (~assigned & (assigned + 1)).bit_length() - 1   # lowest free
        if var < n:
            stack.append([var, 1, assigned, ones])
        elif _record_solution(net, ones, mode, acc):
            return True
        # the next value of the deepest frame that has one left
        while stack:
            frame = stack[-1]
            var, val, assigned, ones = frame
            if val < 0:
                stack.pop()
                continue
            acc.nodes += 1
            frame[1] = val - 1
            conflict, assigned, ones = _assign(net, assigned, ones, var, val)
            if conflict is None:
                break
            acc.last_conflict = conflict
        else:
            return False


def _propagate(net: _Network, seed, assigned: int = 0, ones: int = 0):
    """Assign the (var, value) pairs of `seed` in turn from the state
    (assigned, ones); the first conflict, or None, and the state reached."""
    for var, val in seed:
        conflict, assigned, ones = _assign(net, assigned, ones, var, val)
        if conflict is not None:
            return conflict, assigned, ones
    return None, assigned, ones


def _search_task(net: _Network, seed: tuple[tuple[int, int], ...], mode: Mode,
                 state: tuple[int, int] = (0, 0)):
    """Exhaust the network under `seed`, propagated from `state`: (count,
    first witness as a dict, witnesses as value tuples in decision order,
    nodes, last conflict as an index into `net.maximal`).

    `count` walks as `first` does, which on an UNSAT network is the whole
    tree, and counts only once it has a witness, with `_count_models`."""
    acc = _Acc()
    acc.nodes += 1
    conflict, assigned, ones = _propagate(net, seed, *state)
    if conflict is not None:
        acc.last_conflict = conflict
    elif (_dfs(net, assigned, ones, "first" if mode == "count" else mode, acc)
          and mode == "count"):
        acc.count = _count_models(net, assigned, acc)
    return acc.count, acc.first, acc.solutions, acc.nodes, acc.last_conflict


def _count_models(net: _Network, assigned: int, acc: _Acc) -> int:
    """The number of models extending a conflict-free propagated state
    whose assigned variables are `assigned`.

    It is the product of the counts of the connected components of the
    free variables in `net.adj`.  A component's count depends on its mask
    alone: once propagation is done, a context with a free member holds
    no 1 and its assigned members are all 0, and a free variable has no
    neighbour that is 1.  So what constrains a component is its own edges
    and "exactly one" on each context meeting it, and it is counted from
    the state in which every other variable is 0, once per call, and then
    read from a cache keyed by its mask.  Counting decides its lowest
    variable, value 1 then 0, and multiplies the counts of what stays
    free, up to the first 0.

    Iterative: each frame is [component, next value, its count so far,
    the parts of the current branch left to count (lowest last), their
    product so far]; the root frame is the whole free set's, with no
    value to try.
    """
    full = (1 << len(net.labels)) - 1
    cache: dict[int, int] = {}
    stack = [[0, -1, 0, _parts(net.adj, full & ~assigned)[::-1], 1]]
    while True:
        frame = stack[-1]
        comp, val, total, parts, product = frame
        if product and parts:
            part = parts.pop()
            if part in cache:
                frame[4] = product * cache[part]
            else:       # no branch yet: a product of 0 adds nothing
                stack.append([part, 1, 0, [], 0])
            continue
        total += product
        var = (comp & -comp).bit_length() - 1
        while val >= 0:
            acc.nodes += 1
            conflict, assigned, _ = _assign(net, full & ~comp, 0, var, val)
            val -= 1
            if conflict is None:
                parts = _parts(net.adj, full & ~assigned)[::-1]   # lowest last
                frame[1:] = val, total, parts, 1
                break
            acc.last_conflict = conflict
        else:
            stack.pop()
            cache[comp] = total
            if not stack:
                return total
            stack[-1][4] *= total


def _merge(labels: tuple[str, ...], parts, mode: Mode) -> SearchResult:
    """One result from the searches of the disjoint components of a set
    whose decision order is `labels`, each part a network and its
    `_search_task` result.

    Models are the products of component models.  A witness lists its
    labels in decision order, and the witnesses run in descending
    lexicographic order of their values in decision order: that is the
    order of a single search, which tries 1 before 0 on the lowest
    undecided variable.  The nodes count one root for the whole search;
    the last conflict is that of the last component that had one.
    """
    count = math.prod(p[0] for _, p in parts)
    nodes = 1 + sum(p[3] - 1 for _, p in parts)
    violated = None, None
    for net, p in parts:
        if p[4] is not None:        # -1: no single context to blame
            violated = (None, None) if p[4] < 0 else (
                net.maximal[p[4]].display_name(),
                tuple(_members(net.labels, net.contexts[p[4]])))
    witness = solutions = None
    if count:
        row = _row_builder(labels, [net.labels for net, _ in parts])
        witness = dict(zip(labels, row([tuple(p[1].values()) for _, p in parts])))
        if mode == "all":
            rows = sorted(map(row, itertools.product(*(p[2] for _, p in parts))),
                          reverse=True)
            solutions = [dict(zip(labels, r)) for r in rows]
    return SearchResult(
        status="SAT" if count else "UNSAT",
        witness=None if witness is None else Assignment(witness),
        nodes_explored=nodes,
        count=None if mode == "first" else count,
        witnesses=tuple(map(Assignment, solutions or ()))
        if mode == "all" else None,
        violated_context=violated[0],
        violated_members=violated[1],
    )


def _row_builder(labels: tuple[str, ...], orders):
    """A function from one value tuple per component to the values of
    `labels` in decision order.  A component's values follow its own
    decision order, `orders[k]`."""
    joined = [l for order in orders for l in order]
    if joined == list(labels):      # also when there are 0 or 1 labels
        return _concat
    position = {l: i for i, l in enumerate(joined)}
    pick = operator.itemgetter(*map(position.__getitem__, labels))
    return lambda combo: pick(_concat(combo))


def _concat(tuples) -> tuple:
    return tuple(itertools.chain.from_iterable(tuples))


def _seed_from_fixed(net: _Network, fixed: Mapping[str, int]):
    """Forced values, then the fixed values of the network's own labels."""
    return net.forced + tuple((net.index[l], v) for l, v in fixed.items()
                              if l in net.index)


def admissible_assignments(ps: ProjectorSet, mode: Mode = "first",
                           fixed: Mapping[str, int] | None = None) -> SearchResult:
    """Search for total admissible assignments.

    mode="first" stops at the first witness (canonical order: labels by
    descending context-degree then name, value 1 tried before 0);
    "all" collects every witness; "count" counts them exhaustively.
    `fixed` pins labels before the search starts.
    """
    fixed = _checked_values(ps, fixed or {})
    plan = _plan(ps)
    parts = []      # up to and including the first UNSAT component
    for net in _components(ps, plan):
        part = _search_task(net, _seed_from_fixed(net, fixed), mode)
        parts.append((net, part))
        if not part[0]:
            break
    *_, rank = plan
    return _merge(tuple(rank), parts, mode)


def _validate_fixed_locally(net: _Network, fixed: Mapping[str, int]) -> None:
    """Raise on the first rule the fixed values already break."""
    for v in _violations(net, fixed):
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
    given the fixings.  Components are independent, so once `fixed` is
    satisfiable on every component a pin needs a search of its own
    component only, started from the state that the forced values and
    `fixed` propagate to there, which is computed once per component;
    when `fixed` is UNSAT on one, so is every pin.  Every witness found
    shows each of its values satisfiable, so a pin that an earlier
    witness covers needs no search.
    An inconsistent `fixed` is reported, not silently repaired.
    """
    fixed = _checked_values(ps, fixed or {})
    plan = _plan(ps)
    # the first broken rule is reported, in the order check_assignment gives
    _validate_fixed_locally(_whole_network(ps, plan), fixed)
    components = _components(ps, plan)
    component_of = {l: sub for sub in components for l in sub.labels}
    start: dict[tuple[str, ...], tuple[int, int]] = {}   # by component labels
    witnessed: set[tuple[str, int]] = set()   # (label, value) pairs seen SAT

    def find_witness(sub: _Network, seed) -> bool:
        _, first, _, _, _ = _search_task(sub, seed, "first", start[sub.labels])
        witnessed.update((first or {}).items())
        return first is not None

    def consistent_alone(sub: _Network) -> bool:
        conflict, assigned, ones = _propagate(sub, _seed_from_fixed(sub, fixed))
        start[sub.labels] = assigned, ones
        return conflict is None and find_witness(sub, ())

    # all() stops at the first UNSAT component; the witnesses of the SAT
    # components before it extend to no total assignment, so drop them
    consistent = all(consistent_alone(sub) for sub in components)
    if not consistent:
        witnessed.clear()

    def satisfiable(label: str, value: int) -> bool:
        sub = component_of[label]
        return (label, value) in witnessed or (
            consistent and find_witness(sub, ((sub.index[label], value),)))

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
