"""Command-line front end.

Subcommands: validate, color, eval, localize.  Corpora come from a PSET
file argument or --builtin NAME.  Reports print as human text (default)
or as versioned JSON (--format json); both views render the same payload,
so every number agrees between them.

Exit status: 0 completed, 1 usage or parse error, 2 property violated
(invalid context, inconsistent --fix), 3 UNSAT when --require-sat asked
for a coloring.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import operator
import sys
from fractions import Fraction
from pathlib import Path

from . import corpus
from .contexts import UnknownLabelError, find_maximal_contexts, validate_context
from .search import (InconsistentAssignmentError, admissible_assignments,
                     localized_indefiniteness_certificate)
# localize_indefiniteness is bound here only for bench/spans.py to trace
from .valuation import (ContextValuation, StateVector, TruthValue,
                        ZeroStateError, born_value, evaluate_bivalent,
                        localize_indefiniteness)  # noqa: F401
from .linalg import Vector

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_UNSAT = 3

REPORT_VERSION = "2"


class _CliError(Exception):
    def __init__(self, message: str, status: int = EXIT_USAGE):
        super().__init__(message)
        self.status = status


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the report contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _CliError(f"{self.prog}: error: {message}")


def _load(args) -> tuple[corpus.CorpusFile, object, str]:
    if args.builtin:     # argparse's choices reject an unknown name
        cf = corpus.builtin_file(args.builtin)
        ps = corpus.builtin(args.builtin)   # cached, self-checked on first use
        source = f"builtin:{args.builtin}"
    else:
        path = Path(args.file)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as e:
            raise _CliError(f"cannot read {path}: {e}")
        try:
            cf = corpus.parse(text)
        except corpus.PsetParseError as e:
            raise _CliError(f"{path}: {e}")
        ps = corpus.to_projector_set(cf)
        source = str(path)
    return cf, ps, source


def _corpus_summary(cf, ps, source: str) -> dict:
    canonical = corpus.emit(cf)
    return {
        "source": source,
        "hash": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "dimension": ps.dimension,
        "projectors": len(ps.projectors),
        "contexts": len(ps.contexts),
    }


def _parse_state(arg: str, cf, ps) -> Vector:
    try:
        return cf.state(arg)
    except KeyError:
        pass
    parts = [p.strip() for p in arg.split(",")]
    try:
        # the PSET grammar: -?[0-9]+(/[0-9]+)?, ASCII only, bounded digits
        entries = [corpus._parse_rational(p, 1, i + 1)
                   for i, p in enumerate(parts)]
    except corpus.PsetParseError:
        entries = None
    # one bare entry is an inline vector only in Q^1
    if len(parts) < 2 and (entries is None or ps.dimension != 1):
        raise _CliError(f"--state {arg!r} is neither a declared state label "
                        f"nor an inline vector like 0,0,0,1")
    if entries is None:
        raise _CliError(f"bad rational in --state {arg!r}")
    if len(entries) != ps.dimension:
        raise _CliError(f"--state has {len(entries)} entries, corpus "
                        f"dimension is {ps.dimension}")
    v = Vector(entries)
    if v.is_zero():
        raise _CliError("zero state vector")
    return v


def _parse_fixes(fix_args) -> dict[str, int]:
    fixed: dict[str, int] = {}
    for chunk in fix_args or []:
        for piece in chunk.split(","):
            piece = piece.strip()
            if not piece:
                continue
            if "=" not in piece:
                raise _CliError(f"--fix entries look like LABEL=0 or LABEL=1, "
                                f"got {piece!r}")
            label, _, val = piece.partition("=")
            if val not in ("0", "1"):
                raise _CliError(f"--fix value for {label!r} must be 0 or 1")
            if label in fixed and fixed[label] != int(val):
                raise _CliError(f"--fix pins {label!r} both ways")
            fixed[label] = int(val)
    return fixed


# ---------------------------------------------------------------------------
# commands: each returns (payload dict, text lines, exit status)
# ---------------------------------------------------------------------------

def _cmd_validate(args, cf, ps):
    entries = []
    all_valid = True
    for ctx in ps.contexts:
        report = validate_context(ps, ctx.members)
        all_valid &= report.valid
        entries.append({
            "context": ctx.label,
            "members": list(ctx.members),
            "valid": report.valid,
            "maximal": report.maximal,
            "non_orthogonal_pairs": [list(p) for p in report.non_orthogonal_pairs],
        })
    discovered = find_maximal_contexts(ps)
    payload = {
        "declared": entries,
        "valid_count": sum(e["valid"] for e in entries),
        "declared_count": len(entries),
        "discovered_maximal": [list(c.members) for c in discovered],
    }
    lines = []
    for e in entries:
        verdict = "valid" if e["valid"] else "INVALID"
        tail = ", maximal" if e["maximal"] else ("" if not e["valid"] else ", not maximal")
        lines.append(f"context {e['context']}: {verdict}{tail}")
        for a, b in e["non_orthogonal_pairs"]:
            lines.append(f"  non-orthogonal pair: {a} {b}")
    lines.append(f"declared contexts valid: "
                 f"{payload['valid_count']}/{payload['declared_count']}")
    lines.append(f"maximal contexts discovered: {len(discovered)}")
    status = EXIT_OK if all_valid else EXIT_VIOLATION
    return payload, lines, status


def _cmd_color(args, cf, ps):
    result = admissible_assignments(ps, mode=args.mode)
    payload = {
        "mode": args.mode,
        "status": result.status,
        "nodes_explored": result.nodes_explored,
    }
    lines = [f"status: {result.status}",
             f"nodes explored: {result.nodes_explored}"]
    if result.count is not None:
        payload["count"] = result.count
        lines.append(f"admissible assignments: {result.count}")
    if result.witness is not None and args.mode in ("first", "all"):
        witness = {l: result.witness.values[l] for l in sorted(result.witness.values)}
        payload["witness"] = witness
        lines.append(" ".join(["witness:", *(f"{l}={v}" for l, v in witness.items())]))
    if args.mode == "all" and result.witnesses is not None:
        # plain dicts from the search, no copies; the renderer sorts labels
        payload["witnesses"] = [w.values for w in result.witnesses]
    if result.violated_context:      # only an UNSAT result has one
        payload["last_violated_context"] = result.violated_context
        payload["last_violated_members"] = list(result.violated_members)
        lines.append(f"last violated context: {result.violated_context} "
                     f"({' '.join(result.violated_members)})")
    status = EXIT_UNSAT if (args.require_sat and result.status == "UNSAT") else EXIT_OK
    return payload, lines, status


def _cmd_eval(args, cf, ps):
    vector = _parse_state(args.state, cf, ps)
    state = StateVector(vector)     # scaled to integers once, for every member
    payload = {"state": [str(e) for e in vector.entries],
               "semantics": args.semantics, "contexts": []}
    lines = [f"state: ({', '.join(str(e) for e in vector.entries)})"]
    bivalent = args.semantics == "bivalent"
    judge = evaluate_bivalent if bivalent else born_value
    # each projector judged once for the state
    value = {l: judge(state, p) for l, p in ps.projectors.items()}
    for ctx in ps.contexts or find_maximal_contexts(ps):
        if bivalent:
            valuation = ContextValuation(ctx, tuple(map(value.__getitem__,
                                                        ctx.members)))
            key, shown = "values", [t.value for t in valuation.values]
            total = "undefined" if valuation.total is None else valuation.total
        else:
            weights = list(map(value.__getitem__, ctx.members))
            key, shown = "weights", [str(w) for w in weights]
            total = str(sum(weights, Fraction(0)))
        payload["contexts"].append({"context": ctx.label,
                                    "members": list(ctx.members),
                                    key: shown, "sum": total})
        rendered = " ".join(f"{m}={v}" for m, v in zip(ctx.members, shown))
        lines.append(f"context {ctx.label or '?'}: {rendered}  sum={total}")
    if not payload["contexts"]:
        lines.append("contexts: none")
    if bivalent:
        payload["gaps"] = [l for l, t in value.items() if t is TruthValue.GAP]
        lines.append("gaps: " + (" ".join(payload["gaps"]) or "none"))
    return payload, lines, EXIT_OK


def _cmd_localize(args, cf, ps):
    fixed = _parse_fixes(args.fix)
    try:
        verdicts = localized_indefiniteness_certificate(ps, fixed)
    except InconsistentAssignmentError as e:
        payload = {"fixed": fixed, "inconsistent": str(e),
                   "violated_context": list(e.context) if e.context else None}
        lines = [f"inconsistent fix: {e}"]
        if e.context:
            lines.append("violated context: " + " ".join(e.context))
        return payload, lines, EXIT_VIOLATION
    shown = {label: v.value for label, v in verdicts.items()}
    lines = ["fixed: " + (" ".join(f"{l}={v}" for l, v in sorted(fixed.items()))
                          if fixed else "none")]
    lines += [f"{kind}: " + (" ".join(l for l, v in shown.items() if v == kind)
                             or "none")
              for kind in ("both-contradict", "forced-1", "forced-0",
                           "unconstrained")]
    return {"fixed": fixed, "verdicts": shown}, lines, EXIT_OK


# ---------------------------------------------------------------------------
# JSON rendering
# ---------------------------------------------------------------------------

def _render_json(report: dict) -> str:
    """`json.dumps(report, indent=2, sort_keys=True)`, byte for byte.

    The witness list of `color --mode all`, `report["result"]["witnesses"]`,
    is the one part of a report the standard library's indent encoder
    renders slowly, so the report is dumped once with None in its place
    and `_render_int_dicts` formats the list into the line that dump
    wrote as `"witnesses": null`.  No JSON string holds that line, as
    the encoder escapes every quote and newline inside strings, so the
    only other match would be the same key in another dict one level
    into the report.  Then, and for a missing list or one the template
    declines, the report is dumped whole.
    """
    result = report["result"]
    witnesses = result.get("witnesses")
    listed = _render_int_dicts(witnesses) if type(witnesses) is list else None
    if listed is not None:
        key = '\n    "witnesses": '
        head, _, tail = json.dumps(
            {**report, "result": {**result, "witnesses": None}},
            indent=2, sort_keys=True).partition(key + "null")
        if key + "null" not in tail:     # the first match is the only one
            return f"{head}{key}{listed}{tail}"
    return json.dumps(report, indent=2, sort_keys=True)


def _render_int_dicts(items: list) -> str | None:
    """`json.dumps(items, indent=2, sort_keys=True)` as it reads at
    `report["result"]["witnesses"]`, two levels into a report, for a
    non-empty list of plain dicts that share one set of `str` keys and
    whose values are all of type exactly `int` (the `color --mode all`
    witnesses), or None for any other list.

    One %-template of the sorted keys, each key encoded with any '%'
    doubled and each value a "%d", formats every dict; "%d" writes an int
    as the encoder's `int.__repr__` does.
    """
    if (set(map(type, items)) != {dict}
            or not all(type(k) is str for k in items[0])):
        return None
    keys = sorted(items[0])
    values = itertools.chain.from_iterable(map(dict.values, items))
    if set(map(len, items)) != {len(keys)} or set(map(type, values)) != {int}:
        return None
    # the list sits two levels into the report, its dicts' keys four
    inner, deeper = " " * 6, " " * 8
    slots = f",\n{deeper}".join(f"{json.dumps(k).replace('%', '%%')}: %d"
                                 for k in keys)
    template = f"{{\n{deeper}{slots}\n{inner}}}"
    try:
        parts = list(map(template.__mod__,
                         map(operator.itemgetter(*keys), items)))
    except KeyError:          # as many keys, other ones
        return None
    parts[0] = f"[\n{inner}{parts[0]}"
    parts[-1] = f"{parts[-1]}\n    ]"
    return f",\n{inner}".join(parts)


# ---------------------------------------------------------------------------

def _glue_negative_states(argv: list[str]) -> list[str]:
    """`--state -1,2,0,0` as `--state=-1,2,0,0`, and so for any value
    after `--state` or `--fix` that starts with one '-': a negative entry
    or a label like `-a`, which the PSET grammar allows.  argparse takes
    such a value for an option unless it is one plain number."""
    glued: list[str] = []
    for arg in argv:
        if (glued and glued[-1] in ("--state", "--fix")
                and arg.startswith("-") and not arg.startswith("--")):
            glued[-1] = f"{glued[-1]}={arg}"
        else:
            glued.append(arg)
    return glued


@functools.cache     # one per process: each parse_args makes fresh state
def _build_parser() -> _Parser:
    parser = _Parser(prog="kscontext",
                     description="Exact analysis of projector contexts: "
                                 "validity, colorability, truth valuations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("file", nargs="?", help="PSET corpus file")
        p.add_argument("--builtin", choices=corpus.BUILTIN_NAMES,
                       help="use a built-in corpus instead of a file")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("validate", help="check declared contexts")
    add_common(p)

    p = sub.add_parser("color", help="search noncontextual {0,1} assignments")
    add_common(p)
    p.add_argument("--mode", choices=("first", "all", "count"), default="first")
    p.add_argument("--require-sat", action="store_true",
                   help="exit 3 when no assignment exists")

    p = sub.add_parser("eval", help="evaluate contexts at a state")
    add_common(p)
    p.add_argument("--state", required=True,
                   help="declared state label or inline vector q1,q2,...")
    p.add_argument("--semantics", choices=("bivalent", "born"),
                   default="bivalent")

    p = sub.add_parser("localize", help="pin labels and classify the rest")
    add_common(p)
    p.add_argument("--fix", action="append", metavar="L=V[,L=V...]",
                   help="fixed assignment entries")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(
            _glue_negative_states(sys.argv[1:] if argv is None else list(argv)))
        if bool(args.file) == bool(args.builtin):
            raise _CliError(f"{parser.prog}: error: give exactly one corpus "
                            f"source: a FILE or --builtin NAME")
        cf, ps, source = _load(args)
        handler = {"validate": _cmd_validate, "color": _cmd_color,
                   "eval": _cmd_eval, "localize": _cmd_localize}[args.command]
        payload, lines, status = handler(args, cf, ps)
    except _CliError as e:
        print(str(e), file=sys.stderr)
        return e.status
    except ZeroStateError as e:
        print(f"kscontext: error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except UnknownLabelError as e:
        print(f"kscontext: error: unknown label {e.args[0]!r}", file=sys.stderr)
        return EXIT_USAGE

    report = {
        "report_version": REPORT_VERSION,
        "command": args.command,
        "argv": list(argv) if argv is not None else sys.argv[1:],
        "corpus": _corpus_summary(cf, ps, source),
        "result": payload,
        "exit_status": status,
    }
    if args.format == "json":
        print(_render_json(report))
    else:
        summary = report["corpus"]
        print(f"corpus: {summary['source']} (dim {summary['dimension']}, "
              f"{summary['projectors']} projectors, "
              f"{summary['contexts']} declared contexts)")
        print(f"corpus hash: {summary['hash']}")
        for line in lines:
            print(line)
    return status


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
