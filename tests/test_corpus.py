"""PSET parsing, emission, round-trips, and the built-in corpora."""

import sys
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from kscontext import (BUILTIN_NAMES, Matrix, PsetParseError, Vector,
                       admissible_assignments, builtin, builtin_file, emit,
                       find_maximal_contexts, parse, to_projector_set,
                       validate_context)

from kscontext.corpus import _parse_rational

from _gen import random_pset_text

C1_TEXT = """\
# four rays resolving the identity
dim 4
vec P1_1 = 0 0 0 1
vec P1_2 = 0 1 0 0
vec P1_3 = 1 0 1 0
vec P1_4 = 1 0 -1 0
context C1 = P1_1 P1_2 P1_3 P1_4
"""


class TestParse:
    def test_minimal_file(self):
        cf = parse(C1_TEXT)
        assert cf.dimension == 4
        assert len(cf.vectors) == 4
        assert cf.contexts == (("C1", ("P1_1", "P1_2", "P1_3", "P1_4")),)
        assert cf.projector_labels() == ("P1_1", "P1_2", "P1_3", "P1_4")

    def test_empty_contexts_section_is_valid(self):
        cf = parse("dim 2\nvec a = 1 0\nvec b = 0 1\n")
        assert cf.contexts == ()
        ps = to_projector_set(cf)
        assert len(find_maximal_contexts(ps)) == 1

    def test_rationals_and_comments(self):
        cf = parse("dim 2\nvec a = 1/2 -3/4  # trailing comment\n")
        assert cf.vectors[0][1] == Vector((Fraction(1, 2), Fraction(-3, 4)))

    def test_wrong_entry_count_reports_line(self):
        with pytest.raises(PsetParseError) as err:
            parse("dim 4\nvec a = 1 0 0\n")
        assert err.value.line == 2

    def test_zero_vector_rejected(self):
        with pytest.raises(PsetParseError, match="zero vector"):
            parse("dim 2\nvec a = 0 0\n")

    def test_zero_state_rejected(self):
        with pytest.raises(PsetParseError, match="zero state"):
            parse("dim 2\nvec a = 1 0\nstate s = 0 0\n")

    def test_duplicate_label_rejected(self):
        with pytest.raises(PsetParseError, match="duplicate"):
            parse("dim 2\nvec a = 1 0\nvec a = 0 1\n")

    def test_unknown_context_member(self):
        with pytest.raises(PsetParseError, match="unknown projector"):
            parse("dim 2\nvec a = 1 0\nvec b = 0 1\ncontext C = a zz\n")

    def test_context_needs_two_members(self):
        with pytest.raises(PsetParseError, match="two members"):
            parse("dim 2\nvec a = 1 0\ncontext C = a\n")

    def test_context_member_named_twice(self):
        text = ("dim 3\nvec a = 1 0 0\nvec b = 0 1 0\nvec c = 0 0 1\n"
                "context C = a b b c\n")
        with pytest.raises(PsetParseError,
                           match="context 'C' names 'b' twice") as err:
            parse(text)
        assert (err.value.line, err.value.column) == (5, 17)

    def test_missing_dim(self):
        with pytest.raises(PsetParseError, match="dim"):
            parse("vec a = 1 0\n")

    def test_dim_must_come_first(self):
        with pytest.raises(PsetParseError, match="dim must"):
            parse("vec a = 1 0\ndim 2\n")

    def test_bad_rational_reports_column(self):
        with pytest.raises(PsetParseError) as err:
            parse("dim 2\nvec a = 1 x\n")
        assert err.value.line == 2
        assert err.value.column == 11

    def test_zero_denominator(self):
        with pytest.raises(PsetParseError, match="denominator"):
            parse("dim 2\nvec a = 1 1/0\n")

    def test_unknown_directive(self):
        with pytest.raises(PsetParseError, match="unknown directive"):
            parse("dim 2\nvictor a = 1 0\n")


class TestSpans:
    SPAN_TEXT = """\
dim 4
vec a = 0 0 0 1
vec b = 0 1 0 0
vec c = 1 0 0 0
span plane = a b
context C = plane c
"""

    def test_span_builds_higher_rank_projector(self):
        ps = to_projector_set(parse(self.SPAN_TEXT))
        assert set(ps.projectors) == {"plane", "c"}
        assert ps["plane"].rank == 2

    def test_consumed_vector_is_not_a_projector(self):
        with pytest.raises(PsetParseError, match="consumed"):
            parse(self.SPAN_TEXT + "context D = a c\n")

    def test_span_of_unknown_vector(self):
        with pytest.raises(PsetParseError, match="unknown vector"):
            parse("dim 2\nvec a = 1 0\nspan s = a b\n")

    def test_dependent_span_reduced(self):
        text = "dim 2\nvec a = 1 0\nvec b = 2 0\nspan s = a b\n"
        ps = to_projector_set(parse(text))
        assert ps["s"].rank == 1

    def test_span_round_trips_through_projector_set(self):
        ps = to_projector_set(parse(self.SPAN_TEXT))
        assert to_projector_set(parse(emit(ps))) == ps


class TestEmit:
    def test_file_round_trip_identity(self):
        cf = parse(C1_TEXT)
        assert parse(emit(cf)) == cf

    def test_lowest_terms(self):
        cf = parse("dim 2\nvec a = 2/4 6/4\n")
        assert "1/2 3/2" in emit(cf)

    def test_labels_byte_exact(self):
        cf = parse("dim 2\nvec weird.Label-1:x = 1 0\n")
        assert "weird.Label-1:x" in emit(cf)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtin_round_trip(self, name):
        ps = builtin(name)
        assert to_projector_set(parse(emit(ps))) == ps
        cf = builtin_file(name)
        assert parse(emit(cf)) == cf

    @pytest.mark.parametrize("taken", [["Q.1"], ["Q.1", "Q.1_"]])
    def test_derived_labels_avoid_taken_ones(self, taken):
        # the derived vectors of span Q would be Q.1 and Q.2
        rays = ["0 0 1", "1 1 0"]
        text = "dim 3\n" + "".join(
            f"vec {label} = {ray}\n" for label, ray in zip(taken, rays))
        text += "vec a = 1 0 0\nvec b = 0 1 0\nspan Q = a b\n"
        ps = to_projector_set(parse(text))
        emitted = emit(ps)
        assert to_projector_set(parse(emitted)) == ps
        derived = parse(emitted).spans[0][1]
        assert len(derived) == 2 and not set(derived) & set(taken)

    def test_random_file_round_trips(self):
        rng = Random(36912)
        for _ in range(30):
            text = random_pset_text(rng)
            cf = parse(text)
            assert parse(emit(cf)) == cf
            ps = to_projector_set(cf)
            assert to_projector_set(parse(emit(ps))) == ps


class TestBuiltins:
    def test_unknown_name(self):
        with pytest.raises(KeyError):
            builtin("peres-33")

    def test_c1c6_shape(self):
        ps = builtin("cabello-c1c6")
        assert ps.dimension == 4
        assert len(ps.projectors) == 8
        assert [c.label for c in ps.contexts] == ["C1", "C6"]
        found = find_maximal_contexts(ps)
        assert [c.label for c in found] == ["C1", "C6"]

    def test_cabello18_shape(self):
        ps = builtin("cabello-18")
        assert len(ps.projectors) == 18
        assert len(ps.contexts) == 9
        counts = {l: 0 for l in ps.projectors}
        for ctx in ps.contexts:
            for m in ctx.members:
                counts[m] += 1
        assert all(n == 2 for n in counts.values())

    def test_cabello18_uncolorable(self):
        assert admissible_assignments(builtin("cabello-18")).status == "UNSAT"

    def test_every_declared_context_valid_and_maximal(self):
        for name in BUILTIN_NAMES:
            ps = builtin(name)
            for ctx in ps.contexts:
                report = validate_context(ps, ctx.members)
                assert report.valid and report.maximal

    def test_builtin_states(self):
        for name in BUILTIN_NAMES:
            cf = builtin_file(name)
            assert cf.state("e4") == Vector((0, 0, 0, 1))

    def test_builtin_matrices_entry_for_entry(self):
        # the eight projector matrices, frozen here digit by digit
        h = Fraction(1, 2)
        q = Fraction(1, 4)
        expected = {
            "P1_1": [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]],
            "P1_2": [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
            "P1_3": [[h, 0, h, 0], [0, 0, 0, 0], [h, 0, h, 0], [0, 0, 0, 0]],
            "P1_4": [[h, 0, -h, 0], [0, 0, 0, 0], [-h, 0, h, 0], [0, 0, 0, 0]],
            "P6_1": [[q, -q, -q, q], [-q, q, q, -q],
                     [-q, q, q, -q], [q, -q, -q, q]],
            "P6_2": [[q, q, q, q]] * 4,
            "P6_3": [[h, 0, 0, -h], [0, 0, 0, 0], [0, 0, 0, 0], [-h, 0, 0, h]],
            "P6_4": [[0, 0, 0, 0], [0, h, -h, 0], [0, -h, h, 0], [0, 0, 0, 0]],
        }
        for name in BUILTIN_NAMES:
            ps = builtin(name)
            for label, rows in expected.items():
                assert ps[label].matrix == Matrix(rows), (name, label)


# ---------------------------------------------------------------------------
# fuzzing: parse fails closed and round-trips whatever it accepts
# ---------------------------------------------------------------------------

_WORDS = ["dim", "vec", "span", "context", "state", "=", "#", "0", "1", "-1",
          "3/2", "1/0", "a", "b", "c", "²", "١", "٣/٢", "1e3", "0x1"]
_NOISE = st.lists(st.lists(st.one_of(st.sampled_from(_WORDS), st.text(max_size=3)),
                           max_size=6).map(" ".join),
                  max_size=6).map("\n".join)


@st.composite
def _pset_files(draw):
    dim = draw(st.integers(1, 4))
    rational = st.fractions(-4, 4, max_denominator=5).map(str)
    labels = draw(st.lists(st.from_regex(r"[A-Za-z0-9_.:-]{1,3}", fullmatch=True),
                           min_size=1, max_size=5, unique=True))
    lines = [f"dim {dim}"]
    for label in labels:
        lines.append(f"vec {label} = "
                     + " ".join(draw(st.lists(rational, min_size=dim,
                                              max_size=dim))))
    if len(labels) > 2 and draw(st.booleans()):
        lines.append(f"context C = {labels[0]} {labels[1]}")
    if draw(st.booleans()):
        lines.append(f"span S = {labels[-1]}")
    if draw(st.booleans()):
        lines.append("state s = " + " ".join(["1"] * dim))
    if draw(st.booleans()):  # break one line
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = draw(st.sampled_from(_WORDS)) + lines[i][1:]
    return "\n".join(lines) + "\n"


class TestParseFuzz:
    def test_only_ascii_digits(self):
        for text in ("dim ²\n", "dim ١\n", "dim 2\nvec a = ١ 0\n",
                     "dim 2\nvec a = 1/٢ 0\n"):
            with pytest.raises(PsetParseError):
                parse(text)

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.one_of(st.text(), _NOISE, _pset_files()))
    def test_parse_fails_closed_and_round_trips(self, text):
        try:
            cf = parse(text)
        except PsetParseError:
            return
        assert parse(emit(cf)) == cf


def _fraction_or_error(tok: str):
    """What `Fraction(tok)` makes of a token, as `_parse_rational` reports
    it: the value, or the parse error of a zero denominator or of a part
    past int's digit limit."""
    try:
        return Fraction(tok)
    except ZeroDivisionError:
        return f"line 3, column 5: zero denominator in {tok!r}"
    except ValueError:
        return "line 3, column 5: rational has too many digits"


@st.composite
def _digits(draw):
    """ASCII digits with leading zeros, short and around int's digit limit."""
    limit = sys.get_int_max_str_digits()
    zeros = "0" * draw(st.integers(0, 3))
    pattern = draw(st.text("0123456789", min_size=1, max_size=12))
    size = draw(st.one_of(st.integers(1, 40),
                          st.integers(limit - 4, limit + 4)))
    return zeros + (pattern * (size // len(pattern) + 1))[:size]


@st.composite
def _rational_tokens(draw):
    """`-?[0-9]+(/[0-9]+)?`: integers and p/q, zero denominators too."""
    sign = draw(st.sampled_from(("", "-")))
    den = draw(st.one_of(st.just(""), st.sampled_from(("/0", "/000", "/1")),
                         _digits().map("/".__add__)))
    return sign + draw(_digits()) + den


class TestRationalTokens:
    """Every token is read as `Fraction(int(p), int(q))`; `Fraction(tok)`
    is the oracle."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(_rational_tokens())
    @example("0")
    @example("-0")
    @example("007")
    @example("-0010")
    @example("-0/5")
    @example("-3/6")
    @example("12/0")
    @example("-0/00")
    @example("9" * sys.get_int_max_str_digits())
    @example("-" + "9" * sys.get_int_max_str_digits())
    @example("1" * (sys.get_int_max_str_digits() + 1))
    @example("-" + "0" * (sys.get_int_max_str_digits() + 1))
    @example("1/" + "7" * (sys.get_int_max_str_digits() + 1))
    @example("1" * (sys.get_int_max_str_digits() + 1) + "/0")
    def test_same_as_fraction_of_the_token(self, tok):
        try:
            got = _parse_rational(tok, 3, 5)
        except PsetParseError as e:
            got = str(e)
        want = _fraction_or_error(tok)
        assert got == want and type(got) is type(want)
