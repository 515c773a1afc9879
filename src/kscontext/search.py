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
touches one projector).  So the search builds the set's one constraint
network, takes each component as a mask of its variables, searches each
on its own and combines them: UNSAT iff some component is UNSAT, the
model count is the product of the component counts, and the witnesses
are the Cartesian product of the component witnesses, in the order a
single search over the whole set finds them.  A component is searched
from the state in which every variable outside it is assigned 0, which
no rule of the component can see.  A SAT result always has a witness,
the empty one for an empty set.  `nodes_explored` is one root for the
whole search plus, for every component searched, its nodes less its own
root.  Components are searched in order of their lowest decision index,
up to the first UNSAT one.  Only an UNSAT result names a conflict: its
`violated_context` is the last conflict of that UNSAT component.

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
from dataclasses import dataclass
from typing import Literal, Mapping, get_args

from .contexts import (Context, ProjectorSet, UnknownLabelError, _digits,
                       _FLAGS, _members, _parts, find_maximal_contexts,
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


# by (pin to 1 satisfiable, pin to 0 satisfiable)
_VERDICTS = {(1, 1): PinVerdict.UNCONSTRAINED, (1, 0): PinVerdict.FORCED_ONE,
             (0, 1): PinVerdict.FORCED_ZERO, (0, 0): PinVerdict.BOTH_CONTRADICT}


@dataclass(frozen=True)
class SearchResult:
    """A search's answer.  `violated_context` and `violated_members` are
    diagnostics of an UNSAT result only: the display name and members of
    the last conflict its search met, or None when no single context was
    to blame.  A SAT result carries neither."""

    status: Literal["SAT", "UNSAT"]
    witness: Assignment | None
    nodes_explored: int
    count: int | None = None
    witnesses: tuple[Assignment, ...] | None = None
    violated_context: str | None = None
    violated_members: tuple[str, ...] | None = None


def check_assignment(ps: ProjectorSet, assignment: Assignment | Mapping[str, int]
                     ) -> list[Violation]:
    """Every rule the assignment breaks, judged as the search judges it.

    A total assignment has no violations exactly when the search counts
    it admissible.  Partial assignments are allowed; a context with an
    unassigned member is undetermined unless it already holds two 1s.
    """
    values = _checked_values(ps, assignment)
    return list(_violations(_network(ps), values))


def _checked_values(ps: ProjectorSet, assignment: Assignment | Mapping[str, int]
                    ) -> dict[str, int]:
    """The values, once `Assignment` has checked them, each is an `int` and
    every label is known."""
    if not isinstance(assignment, Assignment):
        assignment = Assignment(assignment)
    # Assignment takes 1.0 and Fraction(1), which equal 1; the search's own
    # witnesses are ints and skip this scan
    bad = {k: v for k, v in assignment.values.items() if not isinstance(v, int)}
    if bad:
        raise ValueError(f"assignment values must be 0 or 1, got {bad}")
    unknown = [k for k in assignment.values if k not in ps.projectors]
    if unknown:
        raise UnknownLabelError(unknown[0])
    return dict(assignment.values)


# ---------------------------------------------------------------------------
# constraint network + backtracking core
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Network:
    """The constraints of a whole set on its variables by decision index,
    as bitsets in which bit k stands for the variable at index k.  A
    connected component of the orthogonality graph is a mask of it."""

    labels: tuple[str, ...]                 # decision order
    index: dict[str, int]                   # label -> position in labels
    adj: tuple[int, ...]                    # per var, its orthogonal neighbours
    maximal: tuple[Context, ...]
    contexts: tuple[int, ...]               # member mask of each of `maximal`
    contexts_of: tuple[tuple[int, ...], ...]  # per var, its contexts, ascending
    forced: tuple[tuple[int, int], ...]     # (var, value) for zero/identity


def _network(ps: ProjectorSet) -> _Network:
    """The set's one network, from one call each of `orthogonality_graph`
    and `find_maximal_contexts`; `forced` runs in set order."""
    maximal = find_maximal_contexts(ps)
    holding: dict[str, list[int]] = {l: [] for l in ps.projectors}
    for c, ctx in enumerate(maximal):
        for m in ctx.members:
            holding[m].append(c)
    # most-constrained labels first; pure performance, correctness is
    # order-independent and tested as such
    order = tuple(sorted(ps.projectors, key=lambda l: (-len(holding[l]), l)))
    index = {l: i for i, l in enumerate(order)}
    contexts = tuple(sum(1 << index[m] for m in ctx.members) for ctx in maximal)
    # rank 0 is the zero projector, rank d the identity
    forced = tuple((index[l], int(p.rank > 0)) for l, p in ps.projectors.items()
                   if p.rank in (0, ps.dimension))
    return _Network(order, index, orthogonality_graph(ps).adjacency(order),
                    maximal, contexts, tuple(tuple(holding[l]) for l in order),
                    forced)


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
    """What one component's search found; a model is the int of its
    variables that are 1, and `start` the state (assigned, ones) that
    its seed propagated to."""

    __slots__ = ("nodes", "count", "first", "solutions", "last_conflict",
                 "start")

    def __init__(self):
        self.nodes = 0
        self.count = 0
        self.first = None
        self.solutions = []
        self.last_conflict = None
        self.start = None


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
        else:
            acc.count += 1
            if acc.first is None:
                acc.first = ones
            if mode == "all":
                acc.solutions.append(ones)
            elif mode == "first":
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


def _propagate(net: _Network, seed, assigned: int, ones: int):
    """Assign the (var, value) pairs of `seed` in turn from the state
    (assigned, ones); the first conflict, or None, and the state reached."""
    for var, val in seed:
        conflict, assigned, ones = _assign(net, assigned, ones, var, val)
        if conflict is not None:
            return conflict, assigned, ones
    return None, assigned, ones


def _search_task(net: _Network, seed: tuple[tuple[int, int], ...], mode: Mode,
                 state: tuple[int, int]) -> _Acc:
    """Exhaust the network under `seed`, propagated from `state`, the pair
    (assigned, ones).  A component is searched from a state in which every
    variable outside it is assigned 0.

    `count` walks as `first` does, which on an UNSAT component is the
    whole tree, and counts only once it has a witness, with
    `_count_models`."""
    acc = _Acc()
    acc.nodes += 1
    conflict, assigned, ones = _propagate(net, seed, *state)
    acc.start = assigned, ones
    if conflict is not None:
        acc.last_conflict = conflict
    elif (_dfs(net, assigned, ones, "first" if mode == "count" else mode, acc)
          and mode == "count"):
        acc.count = _count_models(net, assigned, acc)
    return acc


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
        else:
            stack.pop()
            cache[comp] = total
            if not stack:
                return total
            stack[-1][4] *= total


def _merge(net: _Network, accs: list[_Acc], mode: Mode) -> SearchResult:
    """One result from the searches of disjoint components of the network.

    Models are the sums of component models, whose bits are disjoint.  A
    witness lists its labels in decision order, and the witnesses run in
    descending lexicographic order of their values in decision order:
    that is the order of a single search, which tries 1 before 0 on the
    lowest undecided variable.  The nodes count one root for the whole
    search.  Only an UNSAT result names a conflict: the searches stop at
    the first UNSAT component, the last of `accs`, and its last conflict,
    which it always has, is the one named.
    """
    count = math.prod(acc.count for acc in accs)
    nodes = 1 + sum(acc.nodes - 1 for acc in accs)
    conflict = None if count else accs[-1].last_conflict
    violated = (None, None) if conflict is None or conflict < 0 else (
        net.maximal[conflict].display_name(),
        tuple(_members(net.labels, net.contexts[conflict])))
    n = len(net.labels)
    witness, witnesses = None, ()
    if count:
        witness = Assignment(dict(zip(net.labels, _row(
            sum(acc.first for acc in accs), n))))
        if mode == "all":
            rows = sorted((_row(sum(combo), n) for combo in
                           itertools.product(*(acc.solutions for acc in accs))),
                          reverse=True)
            witnesses = tuple(Assignment(dict(zip(net.labels, row)))
                              for row in rows)
    return SearchResult(
        status="SAT" if count else "UNSAT",
        witness=witness,
        nodes_explored=nodes,
        count=None if mode == "first" else count,
        witnesses=witnesses if mode == "all" else None,
        violated_context=violated[0],
        violated_members=violated[1],
    )


def _row(ones: int, n: int) -> bytes:
    """The values of variables 0 to n - 1 of a model, as the bytes 0 and 1."""
    return _digits(ones, n).encode().translate(_FLAGS)


def _seed(net: _Network, comp: int, fixed: Mapping[str, int]):
    """The forced values, then the fixed values, of the variables in the
    mask `comp`."""
    return (tuple((v, x) for v, x in net.forced if comp >> v & 1)
            + tuple((net.index[l], x) for l, x in fixed.items()
                    if comp >> net.index[l] & 1))


def admissible_assignments(ps: ProjectorSet, mode: Mode = "first",
                           fixed: Mapping[str, int] | None = None) -> SearchResult:
    """Search for total admissible assignments.

    mode="first" stops at the first witness (canonical order: labels by
    descending context-degree then name, value 1 tried before 0);
    "all" collects every witness; "count" counts them exhaustively.
    `fixed` pins labels before the search starts.  Any other mode raises
    ValueError before any work.
    """
    if mode not in get_args(Mode):
        raise ValueError(f"mode must be 'first', 'all' or 'count', "
                         f"got {mode!r}")
    fixed = _checked_values(ps, fixed or {})
    net = _network(ps)
    return _merge(net, [acc for _, acc in _components(net, fixed, mode)], mode)


def _components(net: _Network, fixed: Mapping[str, int], mode: Mode
                ) -> list[tuple[int, _Acc]]:
    """Each component's mask and its search under the forced and fixed
    values, in order of lowest decision index, up to and including the
    first UNSAT one."""
    full = (1 << len(net.labels)) - 1
    parts = []
    for comp in _parts(net.adj, full):
        acc = _search_task(net, _seed(net, comp, fixed), mode, (full & ~comp, 0))
        parts.append((comp, acc))
        if not acc.count:
            break
    return parts


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
    given the fixings.  `fixed` is searched one component at a time, as
    `admissible_assignments` searches it; when it is UNSAT on one
    component, so is every pin.  Otherwise a pin needs a search of its
    own component only, from the state that the forced values and
    `fixed` propagated to there.  Two masks hold the variables that some
    witness found so far sets to 1 and those it sets to 0, so a pin that
    an earlier witness covers needs no search.
    An inconsistent `fixed` is reported, not silently repaired.
    """
    fixed = _checked_values(ps, fixed or {})
    net = _network(ps)
    # the first broken rule is reported, in the order check_assignment gives
    _validate_fixed_locally(net, fixed)
    parts = _components(net, fixed, "first")
    unfixed = [l for l in sorted(ps.projectors) if l not in fixed]
    if not all(acc.count for _, acc in parts):
        return dict.fromkeys(unfixed, PinVerdict.BOTH_CONTRADICT)
    # components hold disjoint bits, so these sums are unions
    ones = sum(acc.first for _, acc in parts)
    zeros = sum(comp & ~acc.first for comp, acc in parts)
    verdicts: dict[str, PinVerdict] = {}
    for label in unfixed:
        var = net.index[label]
        comp, acc = next(part for part in parts if part[0] >> var & 1)
        for val in (1, 0):
            if not (ones if val else zeros) >> var & 1:
                first = _search_task(net, ((var, val),), "first", acc.start).first
                if first is not None:
                    ones |= first
                    zeros |= comp & ~first
        verdicts[label] = _VERDICTS[ones >> var & 1, zeros >> var & 1]
    return verdicts
