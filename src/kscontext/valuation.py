"""State-relative semantics for projector propositions.

Three valuations of a proposition at a (pure, possibly unnormalized)
state vector:

* bivalent-with-gaps: true when the state lies in the projector's range,
  false when it lies in the kernel, and a truth-value gap when it lies in
  neither — the supervaluationist reading;
* the weight valuation: the exact rational <v|P|v>/<v|v>, which agrees
  with the bivalent one at the endpoints 1 and 0 and fills every gap with
  a value strictly between them;
* the localization report, which walks a whole projector set, exhibits
  each gap as a pair of checkable non-membership facts, and shows for
  every gappy maximal context that both uniform bivalent completions of
  the gaps break the sum-to-1 rule.
"""

from __future__ import annotations

import enum
import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .contexts import Context, ProjectorSet, find_maximal_contexts, is_maximal
from .linalg import (Projector, Subspace, Vector, column_space, member,
                     null_space, primitive_integers)


class ZeroStateError(ValueError):
    """The zero vector does not describe a state."""


class TruthValue(enum.Enum):
    TRUE = "1"
    FALSE = "0"
    GAP = "gap"

    def definite(self) -> bool:
        return self is not TruthValue.GAP

    def as_int(self) -> int:
        if self is TruthValue.GAP:
            raise ValueError("a gap has no numeric value")
        return 1 if self is TruthValue.TRUE else 0


@dataclass(frozen=True)
class StateVector:
    """Nonzero rational vector naming a pure state; normalization optional."""

    vector: Vector
    label: str | None = None

    def __post_init__(self):
        if self.vector.is_zero():
            raise ZeroStateError("state vector must be nonzero")

    @functools.cached_property
    def _integers(self) -> tuple[int, ...]:
        """The vector scaled to primitive integers, once per state; both
        valuations are unchanged when the state is scaled."""
        return primitive_integers(self.vector)


def _as_state(state, dim: int) -> StateVector:
    if not isinstance(state, StateVector):
        state = StateVector(state if isinstance(state, Vector) else Vector(state))
    if state.vector.dim != dim:
        raise ValueError(f"dimension mismatch: state {state.vector.dim} vs projector {dim}")
    return state


def _weight(state, p: Projector) -> tuple[int, int, int]:
    """(n, d, vv) with <v|P|v> = n/d and <v|v> = vv, where v is the state
    scaled to primitive integers.

    <v|P|v> = |Pv|^2 is the sum of (v.w)^2 / (w.w) over the orthogonal
    integer basis w of the range, so no matrix and no Fraction is needed.
    """
    v = _as_state(state, p.dim)._integers
    n, d = 0, 1
    for w in p.orthogonal_basis:
        vw = sum(map(operator.mul, v, w))
        if vw:
            ww = sum(map(operator.mul, w, w))
            n, d = n * ww + vw * vw * d, d * ww
    return n, d, sum(map(operator.mul, v, v))


def evaluate_bivalent(state, p: Projector) -> TruthValue:
    """Three-way classification by exact subspace membership.

    TRUE iff the state is in ran(p) (equivalently p@v == v), FALSE iff it
    is in the kernel (p@v == 0), GAP otherwise.  Decided as: FALSE iff v
    is orthogonal to every basis row of the range, TRUE iff |Pv|^2 = |v|^2,
    which for an orthogonal projector holds only when Pv = v.  Never
    ambiguous: the arithmetic is exact.
    """
    n, d, vv = _weight(state, p)
    if n == 0:
        return TruthValue.FALSE
    if n == vv * d:
        return TruthValue.TRUE
    return TruthValue.GAP


@dataclass(frozen=True)
class ContextValuation:
    """Per-member truth values of one context, plus the sum summary."""

    context: Context
    values: tuple[TruthValue, ...]

    @property
    def total(self) -> int | None:
        """The exact sum when every member is definite, None when any
        member gaps: then the sum of values simply does not exist, even
        though the sum of the projectors still evaluates to true."""
        if all(t.definite() for t in self.values):
            return sum(t.as_int() for t in self.values)
        return None

    @property
    def definite(self) -> bool:
        return self.total is not None


def evaluate_context(state, ps: ProjectorSet,
                     ctx: Context | Iterable[str]) -> ContextValuation:
    """Evaluate every member of a valid context at the state."""
    if not isinstance(ctx, Context):
        members = tuple(ctx)
        ctx = Context(members, maximal=is_maximal(ps, members))
    state = _as_state(state, ps.dimension)
    return ContextValuation(
        ctx, tuple(evaluate_bivalent(state, ps[m]) for m in ctx.members))


def born_value(state, p: Projector) -> Fraction:
    """Exact weight <v|P|v> / <v|v>; 1 on the range, 0 on the kernel.

    Normalization is folded into the ratio, so unnormalized rational
    states are legal and nothing ever leaves Q.  For a ray u this is
    (v.u)^2 / ((u.u)(v.v)).
    """
    n, d, vv = _weight(state, p)
    return Fraction(n, d * vv)


def born_context_sum(state, ps: ProjectorSet,
                     ctx: Context | Iterable[str]) -> Fraction:
    """Sum of the weights over a maximal context; exactly 1, always."""
    members = ctx.members if isinstance(ctx, Context) else tuple(ctx)
    if not is_maximal(ps, members):
        raise ValueError("born_context_sum needs a maximal context")
    state = _as_state(state, ps.dimension)
    return sum((born_value(state, ps[m]) for m in members), Fraction(0))


@dataclass(frozen=True)
class MembershipEvidence:
    """Checkable facts behind a gap: the state sits in neither subspace."""

    label: str
    range_space: Subspace
    kernel_space: Subspace
    in_range: bool
    in_kernel: bool


@dataclass(frozen=True)
class ContextGapNarrative:
    """A gappy maximal context with its two failed bivalent completions.

    `sum_gaps_as_false` reads every gap as 0 (state outside the range),
    `sum_gaps_as_true` reads every gap as 1 (state outside the kernel);
    neither reaches the required sum of 1, which is the pair of
    contradictions that forces the gaps to stay gaps.
    """

    context: Context
    values: tuple[TruthValue, ...]
    sum_gaps_as_false: int
    sum_gaps_as_true: int

    @property
    def both_contradict(self) -> bool:
        return self.sum_gaps_as_false != 1 and self.sum_gaps_as_true != 1


@dataclass(frozen=True)
class IndefinitenessReport:
    state: Vector
    values: dict[str, TruthValue]
    evidence: dict[str, MembershipEvidence]
    contexts: tuple[ContextValuation, ...]
    narratives: tuple[ContextGapNarrative, ...]

    @property
    def gaps(self) -> tuple[str, ...]:
        return tuple(l for l, t in self.values.items() if t is TruthValue.GAP)


def localize_indefiniteness(state, ps: ProjectorSet) -> IndefinitenessReport:
    """Classify every projector at the state and document the gaps.

    Gap evidence is computed independently of `evaluate_bivalent`, by
    explicit membership tests against the range and kernel subspaces, so
    a report can be re-checked without trusting the classifier.
    """
    state = _as_state(state, ps.dimension)
    v = state.vector
    values: dict[str, TruthValue] = {}
    evidence: dict[str, MembershipEvidence] = {}
    for label, p in ps.projectors.items():
        t = evaluate_bivalent(state, p)
        values[label] = t
        if t is TruthValue.GAP:
            ran = column_space(p.matrix)
            ker = null_space(p.matrix)
            evidence[label] = MembershipEvidence(
                label, ran, ker, member(v, ran), member(v, ker))
    contexts = []
    narratives = []
    for ctx in find_maximal_contexts(ps):
        valuation = ContextValuation(ctx, tuple(values[m] for m in ctx.members))
        contexts.append(valuation)
        if not valuation.definite:
            true_count = sum(1 for t in valuation.values if t is TruthValue.TRUE)
            gap_count = sum(1 for t in valuation.values if t is TruthValue.GAP)
            narratives.append(ContextGapNarrative(
                ctx, valuation.values,
                sum_gaps_as_false=true_count,
                sum_gaps_as_true=true_count + gap_count,
            ))
    return IndefinitenessReport(v, values, evidence,
                                tuple(contexts), tuple(narratives))
