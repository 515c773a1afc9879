"""Exact linear algebra: frozen worked examples plus lattice-law properties.

Expected matrices and bases for the 4x4 corpus projectors were derived by
hand Gaussian elimination and are frozen here; the randomized loops check
the subspace lattice laws on small dimensions.
"""

import itertools
import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from kscontext import (BUILTIN_NAMES, Matrix, Projector, Subspace, Vector,
                       builtin, column_space, complement, contains,
                       is_orthogonal, join, meet, member, null_space,
                       orthocomplement, projector_from_span, rref)

from _gen import (fraction_null_space, fraction_span, gram_schmidt,
                  random_orthogonal_basis, random_subspace, random_vector)

H = Fraction(1, 2)
Q = Fraction(1, 4)

P1_1 = Matrix([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]])
P1_2 = Matrix([[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
P1_3 = Matrix([[H, 0, H, 0], [0, 0, 0, 0], [H, 0, H, 0], [0, 0, 0, 0]])
P1_4 = Matrix([[H, 0, -H, 0], [0, 0, 0, 0], [-H, 0, H, 0], [0, 0, 0, 0]])
P6_1 = Matrix([[Q, -Q, -Q, Q], [-Q, Q, Q, -Q], [-Q, Q, Q, -Q], [Q, -Q, -Q, Q]])
P6_2 = Matrix([[Q] * 4] * 4)
P6_3 = Matrix([[H, 0, 0, -H], [0, 0, 0, 0], [0, 0, 0, 0], [-H, 0, 0, H]])
P6_4 = Matrix([[0, 0, 0, 0], [0, H, -H, 0], [0, -H, H, 0], [0, 0, 0, 0]])


def span(*rows):
    return Subspace.from_span([Vector(r) for r in rows], dim_ambient=4)


class TestRref:
    def test_identity_already_canonical(self):
        assert rref(Matrix.identity(4)) == Matrix.identity(4)

    def test_zero(self):
        assert rref(Matrix.zero(4)) == Matrix.zero(4)

    def test_rank_one_projector_matrix(self):
        # hand elimination: normalize row 1, clear row 3, zero rows sink
        expected = Matrix([[1, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        assert rref(P1_3) == expected

    def test_idempotent(self):
        m = Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert rref(rref(m)) == rref(m)


class TestColumnAndNullSpace:
    def test_column_space_of_rank_one(self):
        assert column_space(P1_1) == span((0, 0, 0, 1))
        assert column_space(P6_2) == span((1, 1, 1, 1))

    def test_column_space_of_zero(self):
        assert column_space(Matrix.zero(4)).rank == 0

    def test_null_space_is_three_dimensional(self):
        # all (-c, b, c, d): canonical basis rows below
        assert null_space(P1_3) == span((1, 0, -1, 0), (0, 1, 0, 0), (0, 0, 0, 1))
        # all (b, c, c, d)
        assert null_space(P6_4) == span((1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 0, 1))

    def test_null_space_of_identity(self):
        assert null_space(Matrix.identity(4)).is_zero()

    def test_null_space_equals_complement_column_space(self):
        for m in (P1_1, P1_3, P6_1, P6_3):
            p = Projector(m)
            assert null_space(m) == column_space(complement(p).matrix)


class TestProjectorFromSpan:
    @pytest.mark.parametrize("ray,expected", [
        ((0, 0, 0, 1), P1_1),
        ((1, 0, 1, 0), P1_3),
        ((1, -1, -1, 1), P6_1),
    ])
    def test_rank_one_matches_worked_matrices(self, ray, expected):
        assert projector_from_span([Vector(ray)]).matrix == expected

    def test_dependent_span_reduced_not_rejected(self):
        p = projector_from_span([Vector((1, 0, 1, 0)), Vector((2, 0, 2, 0))])
        assert p.matrix == P1_3
        assert p.rank == 1

    def test_higher_rank(self):
        p = projector_from_span([Vector((0, 0, 0, 1)), Vector((0, 1, 0, 0))])
        assert p.rank == 2
        assert p.matrix == Matrix([[0, 0, 0, 0], [0, 1, 0, 0],
                                   [0, 0, 0, 0], [0, 0, 0, 1]])

    def test_mixed_dimension_rejected(self):
        with pytest.raises(ValueError):
            projector_from_span([Vector((1, 0)), Vector((1, 0, 0))])

    def test_non_orthonormal_spanners(self):
        p = projector_from_span([Vector((1, 1, 0, 0)), Vector((1, 2, 0, 0))])
        assert p.rank == 2
        assert p.matrix == Matrix([[1, 0, 0, 0], [0, 1, 0, 0],
                                   [0, 0, 0, 0], [0, 0, 0, 0]])


def gram_schmidt_matrix(vectors) -> Matrix:
    """sum_u (u u^T) / (u . u) over the Fraction Gram-Schmidt basis of the
    RREF basis of the span: the construction `projector_from_span` used
    before it read the fraction-free basis."""
    span = Subspace.from_span(vectors)
    total = Matrix.zero(span.dim_ambient)
    for u in gram_schmidt(list(span.basis)):
        nrm = u.dot(u)
        total = total + Matrix([[a * b / nrm for b in u] for a in u])
    return total


class TestSpanMatrixAgainstGramSchmidt:
    def test_every_rank_up_to_dimension_five(self):
        rng = Random(2718)
        ranks = set()
        for d in range(1, 6):
            for r in range(d + 1):
                for _ in range(8):
                    vectors = [random_vector(rng, d) for _ in range(r)]
                    # a dependent spanner, or the zero vector for rank 0
                    vectors.append(sum(vectors, Vector([0] * d)))
                    p = projector_from_span(vectors)
                    assert p.matrix == gram_schmidt_matrix(vectors)
                    ranks.add((d, p.rank))
        assert ranks == {(d, r) for d in range(1, 6) for r in range(d + 1)}

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtins(self, name):
        for p in builtin(name).projectors.values():
            assert p.matrix == gram_schmidt_matrix(p.range_basis)


class TestComplement:
    def test_rank_one(self):
        assert complement(Projector(P1_1)).matrix == Matrix(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]])

    def test_zero(self):
        assert complement(Projector.zero(4)).matrix == Matrix.identity(4)

    def test_subtracted_by_hand(self):
        expected = Matrix([[H, 0, 0, H], [0, 1, 0, 0], [0, 0, 1, 0], [H, 0, 0, H]])
        assert complement(Projector(P6_3)).matrix == expected

    def test_involution_and_resolution(self):
        p = Projector(P6_1, label="p")
        assert complement(complement(p)) == p
        assert p.matrix + complement(p).matrix == Matrix.identity(4)


class TestMeetJoinOrthocomplement:
    def test_meets_with_first_context_ray(self):
        a = column_space(P1_1)
        for m in (P6_1, P6_2, P6_3, P6_4):
            assert meet(a, column_space(m)).is_zero()

    def test_meet_with_complement_ranges(self):
        a = column_space(P1_1)
        for m in (P6_1, P6_2, P6_3):
            assert meet(a, null_space(m)).is_zero()
        inter = meet(a, null_space(P6_4))
        assert inter == a
        assert contains(null_space(P6_4), a)

    def test_meet_idempotent(self):
        s = span((1, 2, 3, 4), (0, 1, 0, 1))
        assert meet(s, s) == s

    def test_join_of_orthogonal_lines(self):
        assert join(column_space(P1_1), column_space(P1_2)) == \
            span((0, 1, 0, 0), (0, 0, 0, 1))

    def test_join_with_zero_is_identity_element(self):
        s = span((1, 2, 3, 4))
        assert join(s, Subspace.zero(4)) == s

    def test_resolution_joins_to_full_space(self):
        total = Subspace.zero(4)
        for m in (P1_1, P1_2, P1_3, P1_4):
            total = join(total, column_space(m))
        assert total.is_full()

    def test_orthocomplement_of_line(self):
        assert orthocomplement(span((0, 0, 0, 1))) == \
            span((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
        assert orthocomplement(span((1, 0, 0, -1))) == \
            span((1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0))

    def test_orthocomplement_of_full_space(self):
        assert orthocomplement(Subspace.full(4)).is_zero()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            meet(span((1, 0, 0, 0)), Subspace.full(3))


class TestMembership:
    def test_state_in_range(self):
        assert member(Vector((0, 0, 0, 1)), column_space(P1_1))
        assert not member(Vector((0, 0, 0, 1)), column_space(P6_1))

    def test_contains_zero(self):
        assert contains(span((1, 2, 0, 0)), Subspace.zero(4))

    def test_scaling_irrelevant(self):
        assert member(Vector((0, 0, 0, 7)), column_space(P1_1))
        assert member(Vector((0, 0, 0, -H)), column_space(P1_1))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            member(Vector((1, 0)), column_space(P1_1))


class TestOrthogonality:
    def test_same_context_pairs(self):
        assert is_orthogonal(Projector(P1_1), Projector(P1_2))

    def test_cross_context_pair_fails(self):
        # e4 is not in the kernel of the (1,0,0,-1) projector
        assert not is_orthogonal(Projector(P1_1), Projector(P6_3))

    def test_zero_orthogonal_to_all(self):
        assert is_orthogonal(Projector(P6_1), Projector.zero(4))

    def test_dimension_mismatch(self):
        # also when a range basis is empty and no dot product is taken
        ray = projector_from_span([(1, 0, 1, 0)], "a").relabel("b")
        assert ray.dim == 4
        for p, q in ((ray, Projector.zero(3)), (Projector.zero(2), ray),
                     (Projector.identity(3), Projector(P1_1))):
            with pytest.raises(ValueError, match="dimension mismatch"):
                is_orthogonal(p, q)

    def test_one_product_matches_both_products(self):
        def both_products(p, q):
            return ((p.matrix @ q.matrix).is_zero()
                    and (q.matrix @ p.matrix).is_zero())

        rng = Random(5150)
        outcomes = set()
        for _ in range(40):
            d = rng.randint(1, 4)
            basis = random_orthogonal_basis(rng, d)
            pool = [Projector.zero(d), Projector.identity(d)]
            pool += [projector_from_span([v]) for v in basis]
            pool += [projector_from_span(rng.sample(basis, rng.randint(1, d)))
                     for _ in range(3)]
            pool += [projector_from_span([random_vector(rng, d)
                                          for _ in range(rng.randint(1, d))])
                     for _ in range(3)]
            for p in pool:
                for q in pool:
                    assert is_orthogonal(p, q) == both_products(p, q)
                    outcomes.add(is_orthogonal(p, q))
        assert outcomes == {True, False}


class TestRangeBasis:
    """The cached range basis behind `is_orthogonal` and `rank`."""

    def test_primitive_integer_rows_spanning_the_range(self):
        rng = Random(31337)
        seen_lazy = seen_seeded = 0
        for _ in range(60):
            d = rng.randint(1, 5)
            spanned = projector_from_span([random_vector(rng, d)
                                           for _ in range(rng.randint(1, d))])
            pool = [spanned, complement(spanned), Projector(spanned.matrix),
                    Projector.zero(d), Projector.identity(d)]
            for p in pool:
                seen_seeded += p._basis is not None
                seen_lazy += p._basis is None
                basis = p.range_basis
                assert len(basis) == p.rank
                for row in basis:
                    assert all(type(x) is int for x in row)
                    assert math.gcd(*row) == 1
                    assert next(x for x in row if x) > 0
                assert Subspace.from_span(basis, dim_ambient=d) == p.range
                assert p.range_basis is basis
        assert seen_lazy and seen_seeded

    def test_span_seeds_the_basis_of_the_worked_rays(self):
        assert projector_from_span([(0, 0, 0, H)])._basis == ((0, 0, 0, 1),)
        assert projector_from_span([(-H, Q, 0, Q)])._basis == ((2, -1, 0, -1),)
        assert projector_from_span([(1, 1, 0, 0), (1, 2, 0, 0)])._basis == \
            ((1, 0, 0, 0), (0, 1, 0, 0))
        assert projector_from_span([(0, 0, 0, 0), (0, -2, 0, 0)])._basis == \
            ((0, 1, 0, 0),)
        assert Projector(P6_1).range_basis == ((1, -1, -1, 1),)

    def test_rank_is_the_trace(self):
        for m in (P1_1, P1_3, P6_1, Matrix.identity(4), Matrix.zero(4)):
            assert Projector(m).rank == m.trace()

    def test_relabel_shares_the_verified_operator(self, monkeypatch):
        p = projector_from_span([(1, 0, 1, 0)], "a")
        lazy = Projector(P6_2, "b")

        def rebuilt(*args, **kwargs):
            raise AssertionError("relabel rebuilt the projector")

        monkeypatch.setattr(Projector, "__init__", rebuilt)
        for original in (p, lazy):
            q = original.relabel("c")
            assert q.label == "c" and original.label != "c"
            assert q.matrix is original.matrix
            assert q == original
            assert q._basis is original._basis
        assert p.relabel("c").range_basis is p.range_basis


class TestOrthogonalBasis:
    """The cached orthogonal integer basis behind the state valuations."""

    def test_orthogonal_primitive_rows_spanning_the_range(self):
        rng = Random(4242)
        ranks = set()
        for _ in range(60):
            d = rng.randint(1, 5)
            spanned = projector_from_span([random_vector(rng, d)
                                           for _ in range(rng.randint(1, d))])
            for p in (spanned, complement(spanned), Projector(spanned.matrix),
                      Projector.identity(d)):
                basis = p.orthogonal_basis
                ranks.add(len(basis))
                assert len(basis) == p.rank
                for u in basis:
                    assert all(type(x) is int for x in u)
                    assert math.gcd(*u) == 1
                for u, w in itertools.combinations(basis, 2):
                    assert sum(a * b for a, b in zip(u, w)) == 0
                assert Subspace.from_span(basis, dim_ambient=d) == p.range
                assert p.orthogonal_basis is basis
        assert ranks == {0, 1, 2, 3, 4, 5}

    def test_rank_one_uses_the_range_basis(self):
        p = projector_from_span([(-H, Q, 0, Q)])
        assert p.orthogonal_basis is p.range_basis
        lazy = Projector(P6_1)
        assert lazy.orthogonal_basis is lazy.range_basis
        assert lazy.orthogonal_basis == ((1, -1, -1, 1),)

    def test_worked_plane(self):
        # rows (1,0,1,0) and (0,1,1,0) of the RREF basis: the second loses
        # its component along the first, 2*(0,1,1,0) - 1*(1,0,1,0)
        p = projector_from_span([(1, 0, 1, 0), (0, 1, 1, 0)])
        assert p.range_basis == ((1, 0, 1, 0), (0, 1, 1, 0))
        assert p.orthogonal_basis == ((1, 0, 1, 0), (-1, 2, 1, 0))

    def test_relabel_shares_it(self):
        p = projector_from_span([(1, 0, 1, 0), (0, 1, 1, 0)], "a")
        basis = p.orthogonal_basis
        assert p.relabel("b").orthogonal_basis is basis


class TestProjectorValidation:
    def test_not_idempotent(self):
        with pytest.raises(ValueError):
            Projector(Matrix([[1, 0], [0, 2]]))

    def test_not_symmetric(self):
        with pytest.raises(ValueError):
            Projector(Matrix([[1, 1], [0, 0]]))

    def test_not_square(self):
        with pytest.raises(ValueError):
            Projector(Matrix([[1, 0, 0], [0, 1, 0]]))


class TestLatticeLaws:
    """Randomized lattice-law checks; the full 1000-case battery is in the
    acceptance suite, this is the fast smoke version."""

    def test_laws_on_random_subspaces(self):
        rng = Random(20260810)
        for _ in range(150):
            d = rng.randint(1, 5)
            a, b, c = (random_subspace(rng, d) for _ in range(3))
            assert meet(a, b) == meet(b, a)
            assert join(a, b) == join(b, a)
            assert meet(a, meet(b, c)) == meet(meet(a, b), c)
            assert join(a, join(b, c)) == join(join(a, b), c)
            assert join(a, meet(a, b)) == a
            assert meet(a, join(a, b)) == a
            assert orthocomplement(orthocomplement(a)) == a
            assert meet(a, orthocomplement(a)).is_zero()
            assert join(a, orthocomplement(a)).is_full()
            assert join(a, b) == orthocomplement(
                meet(orthocomplement(a), orthocomplement(b)))
            assert meet(a, b).rank + join(a, b).rank <= a.rank + b.rank

    def test_commuting_product_formula(self):
        # diagonal 0/1 projectors commute; the product formula must agree
        rng = Random(4242)
        for _ in range(100):
            d = rng.randint(2, 5)
            pa = Projector(Matrix([[1 if (i == j and rng.random() < 0.5) else 0
                                    for j in range(d)] for i in range(d)]))
            pb = Projector(Matrix([[1 if (i == j and rng.random() < 0.5) else 0
                                    for j in range(d)] for i in range(d)]))
            assert pa.matrix @ pb.matrix == pb.matrix @ pa.matrix
            assert meet(pa.range, pb.range) == column_space(pa.matrix @ pb.matrix)

    def test_member_stable_under_double_complement(self):
        rng = Random(99)
        for _ in range(60):
            d = rng.randint(1, 4)
            s = random_subspace(rng, d)
            v = random_vector(rng, d, nonzero=False)
            assert member(v, s) == member(v, orthocomplement(orthocomplement(s)))


def assert_canonical_rows(s: Subspace):
    """Each row primitive with a positive pivot that is its first nonzero
    entry, pivots strictly increasing, each pivot column cleared in the
    other rows; `basis` is the same rows with pivot 1."""
    rows, pivots = s._rows, s._pivots
    assert len(rows) == len(pivots) == s.rank
    assert all(p < q for p, q in zip(pivots, pivots[1:]))
    for i, (row, p) in enumerate(zip(rows, pivots)):
        assert len(row) == s.dim_ambient
        assert all(type(x) is int for x in row)
        assert math.gcd(*row) == 1
        assert row[p] > 0 and not any(row[:p])
        assert all(other[p] == 0 for j, other in enumerate(rows) if j != i)
    assert [v.entries for v in s.basis] == \
        [tuple(Fraction(x, row[p]) for x in row) for row, p in zip(rows, pivots)]


def view(s: Subspace) -> list[tuple[Fraction, ...]]:
    """The Fraction basis rows, after checking the integer rows behind them."""
    assert_canonical_rows(s)
    return [v.entries for v in s.basis]


def spanning_rows(rng: Random, d: int, big: bool) -> list[list[Fraction]]:
    """Up to d + 2 rows: random entries (numerators near 10**30 when `big`),
    some zero entries, and now and then a zero or a repeated row."""
    def entry():
        if rng.random() < 0.25:
            return Fraction(0)
        if big:
            return Fraction(rng.choice((-1, 1)) * (10 ** 30 + rng.randint(-99, 99)),
                            rng.randint(1, 7))
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    rows = [[entry() for _ in range(d)] for _ in range(rng.randint(0, d + 2))]
    if rows and rng.random() < 0.3:
        rows.append(list(rng.choice(rows)))
    if rng.random() < 0.2:
        rows.insert(rng.randrange(len(rows) + 1), [Fraction(0)] * d)
    return rows


def lattice_corpus(seed: int, count: int):
    """(d, rows of a, rows of b, a vector) for d = 1..6 in turn; every
    fourth case has numerators near 10**30.  The vector is a combination
    of a's rows in one case of two, so membership goes both ways."""
    rng = Random(seed)
    for i in range(count):
        d, big = 1 + i % 6, i % 4 == 0
        a, b = spanning_rows(rng, d, big), spanning_rows(rng, d, big)
        v = [Fraction(rng.randint(-3, 3)) for _ in range(d)]
        if a and i % 2:
            v = [sum(rng.randint(-2, 2) * r[j] for r in a) for j in range(d)]
        yield d, a, b, v


class TestLatticeAgainstFractionOracle:
    """Every lattice operation equals Gauss-Jordan over Fractions
    (`_gen.fraction_span` and `fraction_null_space`), and every result
    keeps the integer row invariants."""

    def test_from_span_join_meet_orthocomplement(self):
        ranks = set()
        for d, ra, rb, _ in lattice_corpus(1936, 400):
            a = Subspace.from_span(ra, dim_ambient=d)
            b = Subspace.from_span(rb, dim_ambient=d)
            assert view(a) == fraction_span(ra, d)
            assert view(join(a, b)) == fraction_span(ra + rb, d)
            assert view(orthocomplement(a)) == fraction_null_space(ra, d)
            assert view(meet(a, b)) == fraction_null_space(
                fraction_null_space(ra, d) + fraction_null_space(rb, d), d)
            ranks.add((d, a.rank))
        assert {(d, r) for d in range(1, 7) for r in range(d + 1)} <= ranks

    def test_member_and_contains(self):
        outcomes = set()
        for d, ra, rb, v in lattice_corpus(1968, 400):
            a = Subspace.from_span(ra, dim_ambient=d)
            b = Subspace.from_span(rb, dim_ambient=d)
            rank = len(fraction_span(ra, d))
            inside = len(fraction_span(ra + [v], d)) == rank
            assert member(Vector(v), a) == (Vector(v) in a) == inside
            assert contains(a, b) == (len(fraction_span(ra + rb, d)) == rank)
            assert contains(join(a, b), a) and contains(a, meet(a, b))
            outcomes.add((inside, contains(a, b)))
        assert outcomes == {(True, True), (True, False), (False, True),
                            (False, False)}

    def test_matrix_spaces_and_rref(self):
        rng = Random(1970)
        for i in range(300):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
            entries = spanning_rows(rng, ncols, i % 4 == 0)[:nrows]
            entries += [[Fraction(0)] * ncols] * (nrows - len(entries))
            m = Matrix(entries)
            assert view(null_space(m)) == fraction_null_space(entries, ncols)
            assert view(column_space(m)) == \
                fraction_span(list(zip(*entries)), nrows)
            reduced = fraction_span(entries, ncols)
            assert rref(m).rows == tuple(reduced) + \
                ((Fraction(0),) * ncols,) * (nrows - len(reduced))

    def test_full_and_zero(self):
        for d in range(1, 7):
            assert view(Subspace.full(d)) == fraction_span(
                [[int(i == j) for j in range(d)] for i in range(d)], d)
            assert view(Subspace.zero(d)) == []
            assert orthocomplement(Subspace.zero(d)) == Subspace.full(d)
            assert meet(Subspace.full(d), Subspace.full(d)).is_full()

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.integers(1, 5).flatmap(lambda d: st.tuples(st.just(d), st.lists(
        st.lists(st.one_of(st.fractions(-5, 5, max_denominator=4),
                           st.integers(-10 ** 30, 10 ** 30)),
                 min_size=d, max_size=d),
        max_size=d + 2))))
    def test_from_span_hypothesis(self, case):
        d, rows = case
        assert view(Subspace.from_span(rows, dim_ambient=d)) == \
            fraction_span(rows, d)
