"""State-relative semantics: bivalent gaps, exact weights, localization."""

from fractions import Fraction
from random import Random

import pytest

from kscontext import (Matrix, Projector, ProjectorSet, StateVector,
                       TruthValue, Vector, ZeroStateError, born_context_sum,
                       born_value, builtin, complement, evaluate_bivalent,
                       evaluate_context, localize_indefiniteness,
                       projector_from_span)

from _gen import (matrix_born, matrix_bivalent, peres24,
                  random_orthogonal_basis, random_subspace, random_vector)

E4 = Vector((0, 0, 0, 1))
ONES = Vector((1, 1, 1, 1))
H = Fraction(1, 2)


@pytest.fixture(scope="module")
def c1c6():
    return builtin("cabello-c1c6")


class TestEvaluateBivalent:
    def test_eigenstate_true(self, c1c6):
        assert evaluate_bivalent(E4, c1c6["P1_1"]) is TruthValue.TRUE

    def test_kernel_state_false(self, c1c6):
        assert evaluate_bivalent(E4, c1c6["P1_2"]) is TruthValue.FALSE

    def test_neither_is_gap(self, c1c6):
        assert evaluate_bivalent(E4, c1c6["P6_1"]) is TruthValue.GAP

    def test_unnormalized_state(self, c1c6):
        assert evaluate_bivalent(Vector((0, 0, 0, 5)), c1c6["P1_1"]) is TruthValue.TRUE

    def test_zero_state_rejected(self, c1c6):
        with pytest.raises(ZeroStateError):
            evaluate_bivalent(Vector((0, 0, 0, 0)), c1c6["P1_1"])
        with pytest.raises(ZeroStateError):
            StateVector(Vector((0, 0)))

    def test_dimension_mismatch(self, c1c6):
        with pytest.raises(ValueError):
            evaluate_bivalent(Vector((1, 0)), c1c6["P1_1"])

    def test_complement_duality(self, c1c6):
        rng = Random(7)
        flip = {TruthValue.TRUE: TruthValue.FALSE,
                TruthValue.FALSE: TruthValue.TRUE,
                TruthValue.GAP: TruthValue.GAP}
        for label in c1c6.projectors:
            p = c1c6[label]
            for _ in range(5):
                v = random_vector(rng, 4)
                assert evaluate_bivalent(v, complement(p)) is \
                    flip[evaluate_bivalent(v, p)]


class TestEvaluateContext:
    def test_eigenstate_context(self, c1c6):
        out = evaluate_context(E4, c1c6, c1c6.context_named("C1"))
        assert out.values == (TruthValue.TRUE, TruthValue.FALSE,
                              TruthValue.FALSE, TruthValue.FALSE)
        assert out.total == 1

    def test_gappy_context_sum_undefined(self, c1c6):
        out = evaluate_context(E4, c1c6, c1c6.context_named("C6"))
        assert out.values == (TruthValue.GAP, TruthValue.GAP,
                              TruthValue.GAP, TruthValue.FALSE)
        assert out.total is None
        assert not out.definite

    def test_second_context_eigenstate(self, c1c6):
        # (1,1,1,1) is the P6_2 ray itself, so C6 valuates definitely
        out = evaluate_context(ONES, c1c6, c1c6.context_named("C6"))
        assert out.values == (TruthValue.FALSE, TruthValue.TRUE,
                              TruthValue.FALSE, TruthValue.FALSE)
        assert out.total == 1

    def test_accepts_raw_labels(self, c1c6):
        out = evaluate_context(E4, c1c6, ["P1_1", "P1_2"])
        assert out.total == 1
        assert out.context.maximal is False


class TestNonTruthFunctionality:
    def test_gap_members_but_true_sum(self, c1c6):
        # the sum of the context projectors is the identity: true at any
        # state, even while the member values do not exist
        out = evaluate_context(E4, c1c6, c1c6.context_named("C6"))
        assert out.total is None
        assert evaluate_bivalent(E4, Projector.identity(4)) is TruthValue.TRUE
        assert born_context_sum(E4, c1c6, c1c6.context_named("C6")) == 1

    def test_eigenstate_exclusivity(self):
        rng = Random(31)
        for _ in range(25):
            d = rng.randint(2, 5)
            basis = random_orthogonal_basis(rng, d)
            ps = ProjectorSet(d, {f"b{i}": projector_from_span([v], f"b{i}")
                                  for i, v in enumerate(basis)})
            state = rng.choice(basis) * Fraction(rng.randint(1, 5))
            values = [evaluate_bivalent(state, ps[l]) for l in ps.projectors]
            assert values.count(TruthValue.TRUE) == 1
            assert values.count(TruthValue.FALSE) == d - 1


class TestBornValue:
    def test_printed_weights(self, c1c6):
        weights = [born_value(E4, c1c6[f"P6_{i}"]) for i in (1, 2, 3, 4)]
        assert weights == [Fraction(1, 4), Fraction(1, 4),
                           Fraction(1, 2), Fraction(0)]

    def test_identity_always_one(self):
        rng = Random(5)
        for _ in range(10):
            d = rng.randint(1, 5)
            v = random_vector(rng, d)
            assert born_value(v, Projector.identity(d)) == 1

    def test_normalization_folded_in(self, c1c6):
        for label in c1c6.projectors:
            assert born_value(E4, c1c6[label]) == \
                born_value(Vector((0, 0, 0, -3)), c1c6[label])

    def test_zero_state_rejected(self, c1c6):
        with pytest.raises(ZeroStateError):
            born_value(Vector((0, 0, 0, 0)), c1c6["P1_1"])

    def test_accepts_state_vector_wrapper(self, c1c6):
        s = StateVector(E4, label="e4")
        assert born_value(s, c1c6["P6_3"]) == Fraction(1, 2)


class TestBornContextSum:
    def test_gappy_context_sums_to_one(self, c1c6):
        assert born_context_sum(E4, c1c6, c1c6.context_named("C6")) == 1

    def test_eigenstate_context_sums_to_one(self, c1c6):
        assert born_context_sum(E4, c1c6, c1c6.context_named("C1")) == 1

    def test_parts_from_quadratic_forms(self, c1c6):
        # <v|P|v>/<v|v> for v=(1,1,1,1) over C1: (1/4, 1/4, 1/2, 0)
        parts = [born_value(ONES, c1c6[m])
                 for m in c1c6.context_named("C1").members]
        assert parts == [Fraction(1, 4), Fraction(1, 4),
                         Fraction(1, 2), Fraction(0)]
        assert sum(parts) == 1
        assert born_context_sum(ONES, c1c6, c1c6.context_named("C1")) == 1

    def test_non_maximal_context_rejected(self, c1c6):
        with pytest.raises(ValueError):
            born_context_sum(E4, c1c6, ["P1_1", "P1_2"])

    def test_random_states_and_contexts(self, c1c6):
        rng = Random(1234)
        for ctx in c1c6.contexts:
            for _ in range(20):
                v = random_vector(rng, 4)
                assert born_context_sum(v, c1c6, ctx) == 1


class TestEndpointConsistency:
    def test_three_way_agreement(self):
        rng = Random(246810)
        for _ in range(120):
            d = rng.randint(1, 4)
            sub = random_subspace(rng, d)
            if sub.is_zero() or sub.is_full():
                continue
            p = projector_from_span(sub.basis)
            kind = rng.randrange(3)
            if kind == 0:
                v = sum((random_fraction_scale(rng) * b for b in sub.basis[1:]),
                        random_fraction_scale(rng, nonzero=True) * sub.basis[0])
            elif kind == 1:
                ker = p.kernel
                v = sum((random_fraction_scale(rng) * b for b in ker.basis[1:]),
                        random_fraction_scale(rng, nonzero=True) * ker.basis[0])
            else:
                v = random_vector(rng, d)
            if v.is_zero():
                continue
            t = evaluate_bivalent(v, p)
            w = born_value(v, p)
            if t is TruthValue.TRUE:
                assert w == 1
            elif t is TruthValue.FALSE:
                assert w == 0
            else:
                assert 0 < w < 1


def random_fraction_scale(rng, nonzero=False):
    while True:
        f = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if not nonzero or f != 0:
            return f


def oracle_projectors(rng, d):
    """Projectors on Q^d of every rank 0..d, each built four ways: from a
    span (basis seeded), from its matrix (basis derived lazily), as the
    complement of another, and relabeled."""
    for rank in range(d + 1):
        vectors = [random_vector(rng, d) for _ in range(rank)]
        spanned = projector_from_span(vectors or [[0] * d], "s")
        if spanned.rank != rank:
            continue
        yield spanned
        yield Projector(spanned.matrix)
        yield complement(projector_from_span(
            [random_vector(rng, d) for _ in range(d - rank)] or [[0] * d]))
        yield spanned.relabel("t")


def oracle_states(rng, p):
    """Random states, states in the range and in the kernel, and negative
    rescalings of each."""
    d = p.dim
    states = [random_vector(rng, d) for _ in range(3)]
    for space in (p.range, p.kernel):
        if not space.is_zero():
            states.append(sum((random_fraction_scale(rng) * b
                               for b in space.basis[1:]),
                              random_fraction_scale(rng, nonzero=True)
                              * space.basis[0]))
    scale = -Fraction(rng.randint(1, 7), rng.randint(1, 5))
    return [v for v in states if not v.is_zero()] + \
        [scale * v for v in states if not v.is_zero()]


class TestAgainstMatrixOracle:
    """Both valuations equal the matrix-product forms they replaced."""

    def test_every_rank_and_construction(self):
        rng = Random(80808)
        truth_values = set()
        ranks = set()
        for _ in range(6):
            for d in range(1, 6):
                for p in oracle_projectors(rng, d):
                    ranks.add((d, p.rank))
                    for v in oracle_states(rng, p):
                        t = evaluate_bivalent(v, p)
                        assert t is matrix_bivalent(v, p)
                        assert born_value(v, p) == matrix_born(v, p)
                        truth_values.add(t)
        assert ranks == {(d, r) for d in range(1, 6) for r in range(d + 1)}
        assert truth_values == set(TruthValue)

    def test_fractional_and_negative_inline_states(self, c1c6):
        ps = peres24()
        for v in (Vector((H, -3, 0, 7)), Vector((-H, -H, -H, -H)),
                  Vector((Fraction(-2, 3), Fraction(5, 7), 1, 0))):
            for p in ps.projectors.values():
                assert evaluate_bivalent(v, p) is matrix_bivalent(v, p)
                assert born_value(v, p) == matrix_born(v, p)
        for p in c1c6.projectors.values():
            v = Vector((0, 0, 0, -H))
            assert born_value(v, p) == matrix_born(v, p)

    def test_no_matrix_arithmetic(self, c1c6, monkeypatch):
        plane = projector_from_span([(1, 0, 1, 0), (0, 1, 1, 0)], "plane")
        pool = [*peres24().projectors.values(), *c1c6.projectors.values(),
                plane, Projector(plane.matrix), complement(plane),
                Projector.zero(4), Projector.identity(4)]
        states = [E4, ONES, Vector((H, -3, 0, 7)), Vector((1, 2, 3, 4))]
        want = [(matrix_bivalent(v, p), matrix_born(v, p))
                for p in pool for v in states]

        def no_matrix_arithmetic(*args):
            raise AssertionError("a valuation did matrix arithmetic")

        for name in ("__matmul__", "__add__", "__sub__", "__mul__",
                     "__rmul__"):
            monkeypatch.setattr(Matrix, name, no_matrix_arithmetic)
        got = [(evaluate_bivalent(v, p), born_value(v, p))
               for p in pool for v in states]
        assert got == want


class TestLocalizeIndefiniteness:
    def test_gaps_exactly_at_the_three_rays(self, c1c6):
        report = localize_indefiniteness(E4, c1c6)
        assert report.gaps == ("P6_1", "P6_2", "P6_3")

    def test_gap_evidence_is_double_non_membership(self, c1c6):
        report = localize_indefiniteness(E4, c1c6)
        for label in report.gaps:
            ev = report.evidence[label]
            assert ev.in_range is False
            assert ev.in_kernel is False
            assert ev.range_space.rank + ev.kernel_space.rank == 4

    def test_no_gaps_on_home_context(self, c1c6):
        ps = ProjectorSet(4, {l: c1c6[l] for l in
                              ("P1_1", "P1_2", "P1_3", "P1_4")},
                          [("C1", ("P1_1", "P1_2", "P1_3", "P1_4"))])
        report = localize_indefiniteness(E4, ps)
        assert report.gaps == ()
        assert report.narratives == ()

    def test_projector_with_complement_never_gaps(self, c1c6):
        p = c1c6["P6_2"]
        ps = ProjectorSet(4, {"p": p, "q": complement(p)})
        report = localize_indefiniteness(Vector((3, 3, 3, 3)), ps)
        assert report.gaps == ()

    def test_narrative_reproduces_both_contradictions(self, c1c6):
        report = localize_indefiniteness(E4, c1c6)
        assert len(report.narratives) == 1
        n = report.narratives[0]
        assert n.context.label == "C6"
        assert n.sum_gaps_as_false == 0   # reading every gap as 0: sum 0 != 1
        assert n.sum_gaps_as_true == 3    # reading every gap as 1: sum 3 != 1
        assert n.both_contradict

    def test_context_valuations_included(self, c1c6):
        report = localize_indefiniteness(E4, c1c6)
        by_label = {c.context.label: c for c in report.contexts}
        assert by_label["C1"].total == 1
        assert by_label["C6"].total is None
