"""PSET corpus files and the built-in projector sets.

PSET is a line-oriented text format, chosen for hand-editability and
clean diffs:

    # comment, blank lines ignored; '#' starts a comment anywhere
    dim 4
    vec  P1_1 = 0 0 0 1          # rationals: p, -p, or p/q
    vec  P1_3 = 1 0 1 0
    span Q    = P1_1 P1_3        # higher-rank projector onto a span
    context C1 = P1_1 P1_3
    state e4  = 0 0 0 1

Every `vec` declares a rational vector; a vector becomes a rank-1
projector unless some `span` consumes it, in which case only the span's
projector exists.  Contexts reference projector labels (vectors or
spans), each member once.  `dim` must come first; duplicate labels are
rejected; vectors, spans and states must match the declared dimension;
zero vectors are rejected.

Two corpora are built in:

* ``cabello-c1c6`` — contexts C1 and C6 of the Cabello set on their own:
  eight rank-1 projectors on Q^4, two maximal contexts.
* ``cabello-18`` — the full 18-ray, 9-context set those two contexts
  come from, transcribed from Cabello, Estebaranz and Garcia-Alcaine's
  18-vector proof of the Bell-Kochen-Specker theorem.  Each ray sits in
  exactly two contexts, and no total noncontextual {0,1} assignment
  exists.  A self-check re-verifies all of that on first access, so a
  transcription error fails fast instead of corrupting results.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from fractions import Fraction
from .contexts import Context, ProjectorSet
from .linalg import Vector, projector_from_span

BUILTIN_NAMES = ("cabello-c1c6", "cabello-18")


class PsetParseError(ValueError):
    """Syntax or consistency error in a PSET file, with location."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class CorpusFile:
    """Parsed PSET file: the declarations, in declaration order."""

    dimension: int
    vectors: tuple[tuple[str, Vector], ...]
    spans: tuple[tuple[str, tuple[str, ...]], ...]
    contexts: tuple[tuple[str, tuple[str, ...]], ...]
    states: tuple[tuple[str, Vector], ...]

    def spanned_vector_labels(self) -> frozenset[str]:
        return frozenset(v for _, members in self.spans for v in members)

    def projector_labels(self) -> tuple[str, ...]:
        consumed = self.spanned_vector_labels()
        labels = [l for l, _ in self.vectors if l not in consumed]
        labels += [l for l, _ in self.spans]
        return tuple(labels)

    def state(self, label: str) -> Vector:
        for l, v in self.states:
            if l == label:
                return v
        raise KeyError(label)


_LABEL_RE = re.compile(r"[A-Za-z0-9_.:-]+\Z")
_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?\Z")


def _tokens(line: str):
    """(token, 1-based column) pairs, comments stripped."""
    code = line.split("#", 1)[0]
    return [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", code)]


def _parse_rational(tok: str, lineno: int, col: int) -> Fraction:
    if not _RATIONAL_RE.match(tok):
        raise PsetParseError(f"bad rational {tok!r}", lineno, col)
    num, _, den = tok.partition("/")
    try:
        return Fraction(int(num), int(den or 1))
    except ZeroDivisionError:
        raise PsetParseError(f"zero denominator in {tok!r}", lineno, col) from None
    except ValueError:  # past the digit limit of int()
        raise PsetParseError("rational has too many digits", lineno, col) from None


def _parse_vector_entries(toks, dim: int, lineno: int) -> Vector:
    if len(toks) != dim:
        col = toks[0][1] if toks else 1
        raise PsetParseError(
            f"expected {dim} entries, got {len(toks)}", lineno, col)
    return Vector(_parse_rational(t, lineno, c) for t, c in toks)


def _check_label(tok: str, lineno: int, col: int) -> str:
    if not _LABEL_RE.match(tok):
        raise PsetParseError(f"bad label {tok!r}", lineno, col)
    return tok


def parse(text: str) -> CorpusFile:
    """Parse PSET text into a validated CorpusFile.

    Raises PsetParseError with a line and column on any syntax error,
    dimension mismatch, duplicate or unknown label, context member named
    twice, or zero vector.
    """
    dimension: int | None = None
    vectors: list[tuple[str, Vector]] = []
    spans: list[tuple[str, tuple[str, ...], int]] = []
    contexts: list[tuple[str, tuple[str, ...], int]] = []
    states: list[tuple[str, Vector]] = []
    seen_projector_labels: set[str] = set()
    seen_context_labels: set[str] = set()
    seen_state_labels: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = _tokens(raw)
        if not toks:
            continue
        (word, wcol), rest = toks[0], toks[1:]
        if word == "dim":
            if dimension is not None:
                raise PsetParseError("duplicate dim directive", lineno, wcol)
            if vectors or spans or contexts or states:
                raise PsetParseError("dim must come first", lineno, wcol)
            if len(rest) != 1 or not re.fullmatch("[0-9]{1,9}", rest[0][0]) \
                    or int(rest[0][0]) < 1:
                raise PsetParseError("dim needs one positive integer", lineno, wcol)
            dimension = int(rest[0][0])
            continue
        if word not in ("vec", "span", "context", "state"):
            raise PsetParseError(f"unknown directive {word!r}", lineno, wcol)
        if dimension is None:
            raise PsetParseError("dim must be declared before any data", lineno, wcol)
        if len(rest) < 2 or rest[1][0] != "=":
            raise PsetParseError(f"expected '{word} <label> = ...'", lineno, wcol)
        (label, lcol), body = rest[0], rest[2:]
        _check_label(label, lineno, lcol)

        if word in ("vec", "span"):
            if label in seen_projector_labels:
                raise PsetParseError(f"duplicate label {label!r}", lineno, lcol)
            seen_projector_labels.add(label)
        if word == "vec":
            v = _parse_vector_entries(body, dimension, lineno)
            if v.is_zero():
                raise PsetParseError("zero vector", lineno, lcol)
            vectors.append((label, v))
        elif word == "span":
            if not body:
                raise PsetParseError("span needs at least one vector label",
                                     lineno, lcol)
            members = tuple(_check_label(t, lineno, c) for t, c in body)
            spans.append((label, members, lineno))
        elif word == "context":
            if label in seen_context_labels:
                raise PsetParseError(f"duplicate context {label!r}", lineno, lcol)
            seen_context_labels.add(label)
            if len(body) < 2:
                raise PsetParseError("a context needs at least two members",
                                     lineno, lcol)
            named: set[str] = set()
            for t, c in body:
                if _check_label(t, lineno, c) in named:
                    raise PsetParseError(
                        f"context {label!r} names {t!r} twice", lineno, c)
                named.add(t)
            contexts.append((label, tuple(t for t, _ in body), lineno))
        else:  # state
            if label in seen_state_labels:
                raise PsetParseError(f"duplicate state {label!r}", lineno, lcol)
            seen_state_labels.add(label)
            v = _parse_vector_entries(body, dimension, lineno)
            if v.is_zero():
                raise PsetParseError("zero state", lineno, lcol)
            states.append((label, v))

    if dimension is None:
        raise PsetParseError("missing dim directive", max(1, text.count("\n") + 1))

    vector_labels = {l for l, _ in vectors}
    for label, members, lineno in spans:
        for m in members:
            if m not in vector_labels:
                raise PsetParseError(
                    f"span {label!r} references unknown vector {m!r}", lineno)
    cf = CorpusFile(
        dimension,
        tuple(vectors),
        tuple((l, m) for l, m, _ in spans),
        tuple((l, m) for l, m, _ in contexts),
        tuple(states),
    )
    projector_labels = set(cf.projector_labels())
    consumed = cf.spanned_vector_labels()
    for label, members, lineno in contexts:
        for m in members:
            if m in consumed and m not in projector_labels:
                raise PsetParseError(
                    f"context {label!r} references {m!r}, which is consumed "
                    f"by a span and is not a projector", lineno)
            if m not in projector_labels:
                raise PsetParseError(
                    f"context {label!r} references unknown projector {m!r}",
                    lineno)
    return cf


def to_projector_set(cf: CorpusFile) -> ProjectorSet:
    """Build the ProjectorSet a CorpusFile describes."""
    by_label = dict(cf.vectors)
    consumed = cf.spanned_vector_labels()
    projectors = {}
    for label, v in cf.vectors:
        if label not in consumed:
            projectors[label] = projector_from_span([v], label)
    for label, members in cf.spans:
        projectors[label] = projector_from_span(
            [by_label[m] for m in members], label)
    declared = [Context(members, maximal=False, label=name)
                for name, members in cf.contexts]
    return ProjectorSet(cf.dimension, projectors, declared)


def _format_vector(v: Vector) -> str:
    return " ".join(str(e) for e in v.entries)


def emit(obj: CorpusFile | ProjectorSet) -> str:
    """Serialize to canonical PSET text; parse(emit(x)) round-trips.

    For a CorpusFile the declarations are kept verbatim.  For a
    ProjectorSet each rank-1 projector is written as its canonical
    spanning vector and each higher-rank projector as a span over
    derived vector labels.
    """
    if isinstance(obj, CorpusFile):
        return _emit_file(obj)
    return _emit_projector_set(obj)


def _emit_file(cf: CorpusFile) -> str:
    lines = [f"dim {cf.dimension}"]
    lines += [f"vec {l} = {_format_vector(v)}" for l, v in cf.vectors]
    lines += [f"span {l} = {' '.join(m)}" for l, m in cf.spans]
    lines += [f"context {l} = {' '.join(m)}" for l, m in cf.contexts]
    lines += [f"state {l} = {_format_vector(v)}" for l, v in cf.states]
    return "\n".join(lines) + "\n"


def _emit_projector_set(ps: ProjectorSet) -> str:
    lines = [f"dim {ps.dimension}"]
    span_lines = []
    taken = set(ps.projectors)
    for label, p in ps.projectors.items():
        basis = p.range.basis
        if not basis:
            raise ValueError(f"cannot emit rank-0 projector {label!r}")
        if len(basis) == 1:
            lines.append(f"vec {label} = {_format_vector(basis[0])}")
        else:
            derived = []
            for i, v in enumerate(basis, start=1):
                name = f"{label}.{i}"
                while name in taken:
                    name = name + "_"  # stays within _LABEL_RE
                taken.add(name)
                derived.append(name)
                lines.append(f"vec {name} = {_format_vector(v)}")
            span_lines.append(f"span {label} = {' '.join(derived)}")
    lines += span_lines
    lines += [f"context {c.label or f'ctx{i}'} = {' '.join(c.members)}"
              for i, c in enumerate(ps.contexts, start=1)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# built-in corpora
# ---------------------------------------------------------------------------

_C1C6_TEXT = """\
# Two maximal contexts of rank-1 projectors on Q^4.
dim 4
vec P1_1 = 0 0 0 1
vec P1_2 = 0 1 0 0
vec P1_3 = 1 0 1 0
vec P1_4 = 1 0 -1 0
vec P6_1 = 1 -1 -1 1
vec P6_2 = 1 1 1 1
vec P6_3 = 1 0 0 -1
vec P6_4 = 0 1 -1 0
context C1 = P1_1 P1_2 P1_3 P1_4
context C6 = P6_1 P6_2 P6_3 P6_4
state e4 = 0 0 0 1
"""

# 18 rays, 9 maximal contexts, every ray in exactly two of them.  Rays are
# labeled by their home context and slot; shared rays reuse the home label.
_CABELLO18_TEXT = """\
# Cabello/Estebaranz/Garcia-Alcaine 18-vector set: no admissible coloring.
dim 4
vec P1_1 = 0 0 0 1
vec P1_2 = 0 1 0 0
vec P1_3 = 1 0 1 0
vec P1_4 = 1 0 -1 0
vec P2_2 = 0 0 1 0
vec P2_3 = 1 1 0 0
vec P2_4 = 1 -1 0 0
vec P3_1 = 1 -1 1 -1
vec P3_4 = 0 0 1 1
vec P4_4 = 0 1 0 -1
vec P5_3 = 1 0 0 1
vec P6_1 = 1 -1 -1 1
vec P6_2 = 1 1 1 1
vec P6_3 = 1 0 0 -1
vec P6_4 = 0 1 -1 0
vec P7_1 = 1 1 -1 1
vec P7_2 = 1 1 1 -1
vec P8_2 = -1 1 1 1
context C1 = P1_1 P1_2 P1_3 P1_4
context C2 = P1_1 P2_2 P2_3 P2_4
context C3 = P3_1 P6_1 P2_3 P3_4
context C4 = P3_1 P6_2 P1_4 P4_4
context C5 = P2_2 P1_2 P5_3 P6_3
context C6 = P6_1 P6_2 P6_3 P6_4
context C7 = P7_1 P7_2 P2_4 P3_4
context C8 = P7_1 P8_2 P1_3 P4_4
context C9 = P7_2 P8_2 P5_3 P6_4
state e4 = 0 0 0 1
"""

_BUILTIN_TEXT = {
    "cabello-c1c6": _C1C6_TEXT,
    "cabello-18": _CABELLO18_TEXT,
}


@functools.lru_cache(maxsize=None)
def builtin_file(name: str) -> CorpusFile:
    """CorpusFile of a named built-in corpus (includes its states); parsed
    once, and shared, as a CorpusFile is frozen."""
    try:
        text = _BUILTIN_TEXT[name]
    except KeyError:
        raise KeyError(
            f"unknown builtin {name!r}; available: {', '.join(BUILTIN_NAMES)}"
        ) from None
    return parse(text)


@functools.lru_cache(maxsize=None)
def builtin(name: str) -> ProjectorSet:
    """Named built-in ProjectorSet, self-checked on first access."""
    ps = to_projector_set(builtin_file(name))
    _self_check(name, ps)
    return ps


def _self_check(name: str, ps: ProjectorSet) -> None:
    for ctx in ps.contexts:
        if not ctx.maximal:  # judged when the set was built
            raise RuntimeError(
                f"builtin {name!r} failed self-check: context "
                f"{ctx.display_name()} is not a valid maximal context")
    if name == "cabello-18":
        incidence = {l: 0 for l in ps.projectors}
        for ctx in ps.contexts:
            for m in ctx.members:
                incidence[m] += 1
        if len(ps.projectors) != 18 or len(ps.contexts) != 9 or \
                any(n != 2 for n in incidence.values()):
            raise RuntimeError(
                f"builtin {name!r} failed self-check: expected 18 rays in "
                f"9 contexts with every ray in exactly 2")
