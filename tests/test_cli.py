"""Command-line behavior: reports, formats, exit statuses."""

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter, OrderedDict
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kscontext
from kscontext import (TruthValue, admissible_assignments, cli, contexts,
                       corpus, emit, find_maximal_contexts, linalg)
from kscontext.cli import main

from _gen import peres24, random_split_corpus

SRC = str(Path(kscontext.__file__).resolve().parent.parent)

BAD_PSET = """\
dim 4
vec a = 0 0 0 1
vec b = 1 0 0 1
context C = a b
"""


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def count_orthogonality_tests(monkeypatch):
    tested = []
    original = contexts.is_orthogonal
    monkeypatch.setattr(contexts, "is_orthogonal",
                        lambda p, q: tested.append((p, q)) or original(p, q))
    return tested


def run_json(capsys, *argv):
    status, out, _ = run(capsys, *argv, "--format", "json")
    return status, json.loads(out)


class TestValidate:
    def test_builtin_all_valid(self, capsys):
        status, out, _ = run(capsys, "validate", "--builtin", "cabello-c1c6")
        assert status == 0
        assert "context C1: valid, maximal" in out
        assert "context C6: valid, maximal" in out
        assert "declared contexts valid: 2/2" in out

    def test_full_set_nine_of_nine(self, capsys):
        status, out, _ = run(capsys, "validate", "--builtin", "cabello-18")
        assert status == 0
        assert "declared contexts valid: 9/9" in out
        assert "maximal contexts discovered: 9" in out

    def test_declared_contexts_checked_once(self, capsys, monkeypatch):
        # each declared pair while loading, then each pair once for the graph
        corpus.builtin.cache_clear()
        tested = count_orthogonality_tests(monkeypatch)
        status, _, _ = run(capsys, "validate", "--builtin", "cabello-18")
        assert status == 0
        assert len(tested) == 9 * 6 + 18 * 17 // 2
        # a warm call reuses the cached set, its reports and its graph
        tested.clear()
        assert run(capsys, "validate", "--builtin", "cabello-18")[0] == 0
        assert tested == []

    def test_builtin_runs_its_self_check(self, capsys, monkeypatch):
        # P8_2 mistyped as P6_2: context C8 is no longer orthogonal
        text = corpus._BUILTIN_TEXT["cabello-18"]
        assert "vec P8_2 = -1 1 1 1\n" in text
        monkeypatch.setitem(corpus._BUILTIN_TEXT, "cabello-18", text.replace(
            "vec P8_2 = -1 1 1 1\n", "vec P8_2 = 1 1 1 1\n"))
        corpus.builtin_file.cache_clear()
        corpus.builtin.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="'cabello-18' failed "
                                                   "self-check: context C8"):
                main(["validate", "--builtin", "cabello-18"])
        finally:
            corpus.builtin_file.cache_clear()
            corpus.builtin.cache_clear()

    def test_builtin_is_parsed_once(self, capsys, monkeypatch):
        corpus.builtin_file.cache_clear()
        corpus.builtin.cache_clear()
        parsed = []
        original = corpus.parse
        monkeypatch.setattr(corpus, "parse",
                            lambda text: parsed.append(text) or original(text))
        for _ in range(2):
            assert run(capsys, "validate", "--builtin", "cabello-18")[0] == 0
        assert parsed == [corpus._BUILTIN_TEXT["cabello-18"]]

    def test_unknown_builtin_exits_1(self, capsys):
        status, out, err = run(capsys, "validate", "--builtin", "nope")
        assert status == 1
        assert out == ""
        assert err.startswith("usage:") and "invalid choice: 'nope'" in err

    def test_invalid_context_exits_2_and_names_pair(self, capsys, tmp_path):
        bad = tmp_path / "bad.pset"
        bad.write_text(BAD_PSET)
        status, out, _ = run(capsys, "validate", str(bad))
        assert status == 2
        assert "INVALID" in out
        assert "non-orthogonal pair: a b" in out

    def test_parse_error_exits_1(self, capsys, tmp_path):
        broken = tmp_path / "broken.pset"
        broken.write_text("dim 4\nvec a = 1 2\n")
        status, _, err = run(capsys, "validate", str(broken))
        assert status == 1
        assert "line 2" in err

    def test_missing_file_exits_1(self, capsys):
        status, _, err = run(capsys, "validate", "no-such-file.pset")
        assert status == 1

    def test_need_exactly_one_source(self, capsys):
        status, _, err = run(capsys, "validate")
        assert status == 1
        status, _, err = run(capsys, "validate", "f.pset",
                             "--builtin", "cabello-18")
        assert status == 1


class TestColor:
    def test_full_corpus_unsat(self, capsys):
        status, out, _ = run(capsys, "color", "--builtin", "cabello-18")
        assert status == 0
        assert "status: UNSAT" in out
        assert "nodes explored:" in out

    def test_require_sat_exits_3(self, capsys):
        status, out, _ = run(capsys, "color", "--builtin", "cabello-18",
                             "--require-sat")
        assert status == 3

    def test_sat_prints_witness(self, capsys):
        status, out, _ = run(capsys, "color", "--builtin", "cabello-c1c6")
        assert status == 0
        assert "status: SAT" in out
        assert "witness:" in out

    @pytest.mark.parametrize("mode", ["first", "all", "count"])
    def test_empty_set_is_sat_with_the_empty_witness(self, capsys, tmp_path,
                                                      mode):
        empty = tmp_path / "empty.pset"
        empty.write_text("dim 2\n")
        status, out, _ = run(capsys, "color", str(empty), "--mode", mode)
        assert status == 0 and "status: SAT" in out
        # count mode shows no witness for any set
        assert ("witness:" in out.splitlines()) == (mode != "count")
        status, payload = run_json(capsys, "color", str(empty), "--mode", mode)
        assert status == 0 and payload["result"]["status"] == "SAT"
        assert payload["result"].get("witness") == \
            (None if mode == "count" else {})

    def test_count_mode(self, capsys, tmp_path):
        one_ctx = tmp_path / "one.pset"
        one_ctx.write_text(
            "dim 4\nvec a = 0 0 0 1\nvec b = 0 1 0 0\n"
            "vec c = 1 0 1 0\nvec d = 1 0 -1 0\ncontext C = a b c d\n")
        status, out, _ = run(capsys, "color", str(one_ctx), "--mode", "count")
        assert status == 0
        assert "admissible assignments: 4" in out

    def test_workers_is_not_an_option(self, capsys):
        status, out, err = run(capsys, "color", "--builtin", "cabello-18",
                               "--workers", "4", "--require-sat")
        assert status == 1
        assert out == ""
        assert err.startswith("usage:")
        assert "unrecognized arguments: --workers" in err

    def test_one_orthogonality_test_per_pair(self, capsys, tmp_path,
                                             monkeypatch):
        rays = ["0 0 0 1", "0 1 0 0", "1 0 1 0", "1 0 -1 0",
                "1 -1 -1 1", "1 1 1 1", "1 0 0 -1", "0 1 -1 0"]
        path = tmp_path / "rays.pset"
        path.write_text("dim 4\n" + "".join(
            f"vec r{i} = {ray}\n" for i, ray in enumerate(rays)))
        tested = count_orthogonality_tests(monkeypatch)
        status, out, _ = run(capsys, "color", str(path), "--mode", "count")
        assert status == 0 and "admissible assignments: 12" in out
        assert len(tested) == len(rays) * (len(rays) - 1) // 2


class TestEval:
    def test_eval_builds_no_graph(self, capsys, monkeypatch):
        # only the declared contexts' own pairs, checked while loading
        for semantics in ("bivalent", "born"):
            corpus.builtin.cache_clear()
            tested = count_orthogonality_tests(monkeypatch)
            status, _, _ = run(capsys, "eval", "--builtin", "cabello-c1c6",
                               "--state", "e4", "--semantics", semantics)
            assert status == 0
            assert len(tested) == 2 * 6
        # a warm call reuses the cached set
        tested.clear()
        assert run(capsys, "eval", "--builtin", "cabello-c1c6",
                   "--state", "e4", "--semantics", "born")[0] == 0
        assert tested == []

    def count_born_values(self, monkeypatch):
        weighed = []
        original = cli.born_value
        monkeypatch.setattr(cli, "born_value",
                            lambda state, p: weighed.append(p.label)
                            or original(state, p))
        return weighed

    def test_born_weighs_each_projector_once(self, capsys, monkeypatch):
        weighed = self.count_born_values(monkeypatch)
        status, out, _ = run(capsys, "eval", "--builtin", "cabello-18",
                             "--state", "e4", "--semantics", "born")
        assert status == 0 and out.count("sum=1") == 9
        assert sorted(weighed) == sorted(corpus.builtin("cabello-18").projectors)

    def test_born_weighs_each_peres_ray_once(self, capsys, monkeypatch,
                                             tmp_path):
        # the bench's Peres-24 corpus: 24 rays in 24 declared tetrads, each
        # weight checked against integer dot products on the rays
        monkeypatch.syspath_prepend(str(Path(SRC).parent / "bench"))
        workloads = importlib.import_module("workloads")
        work = workloads.build("peres-queries", workloads.DEV_SEED)
        (peres,) = work.corpora
        path = tmp_path / "peres24.pset"
        path.write_text(peres.text)
        born = [c for c in work.calls if c.metric == "eval_born"]
        assert len(born) == 15
        weighed = self.count_born_values(monkeypatch)
        for call in born:
            argv = [str(path) if a == "{corpus}" else a for a in call.argv]
            weighed.clear()
            status, out, _ = run(capsys, *argv)
            assert call.check(status, json.loads(out)) == []
            assert len(weighed) == len(set(weighed)) == 24

    def test_bivalent_worked_example(self, capsys):
        status, out, _ = run(capsys, "eval", "--builtin", "cabello-c1c6",
                             "--state", "0,0,0,1")
        assert status == 0
        assert "context C1: P1_1=1 P1_2=0 P1_3=0 P1_4=0  sum=1" in out
        assert "context C6: P6_1=gap P6_2=gap P6_3=gap P6_4=0  sum=undefined" in out
        assert "gaps: P6_1 P6_2 P6_3" in out

    def test_born_worked_example(self, capsys):
        status, out, _ = run(capsys, "eval", "--builtin", "cabello-c1c6",
                             "--state", "0,0,0,1", "--semantics", "born")
        assert status == 0
        assert "context C6: P6_1=1/4 P6_2=1/4 P6_3=1/2 P6_4=0  sum=1" in out

    def test_declared_state_label(self, capsys):
        status, out, _ = run(capsys, "eval", "--builtin", "cabello-c1c6",
                             "--state", "e4")
        assert status == 0
        assert "gaps: P6_1 P6_2 P6_3" in out

    def test_zero_state_exits_1(self, capsys):
        status, _, err = run(capsys, "eval", "--builtin", "cabello-c1c6",
                             "--state", "0,0,0,0")
        assert status == 1
        assert "zero state" in err

    def test_wrong_arity_exits_1(self, capsys):
        status, _, err = run(capsys, "eval", "--builtin", "cabello-c1c6",
                             "--state", "1,0")
        assert status == 1

    def test_rational_inline_state(self, capsys):
        status, out, _ = run(capsys, "eval", "--builtin", "cabello-c1c6",
                             "--state", "1/2,1/2,1/2,1/2", "--semantics", "born")
        assert status == 0
        assert "sum=1" in out

    def test_negative_fractional_inline_state(self, capsys):
        status, out, _ = run(capsys, "eval", "--builtin", "cabello-c1c6",
                             "--state", "1/2, -3,0,7", "--semantics", "born")
        assert status == 0
        assert "state: (1/2, -3, 0, 7)" in out

    def test_state_scaled_to_integers_once_per_call(self, capsys,
                                                     monkeypatch):
        from kscontext import valuation
        scaled = []
        original = valuation.primitive_integers
        monkeypatch.setattr(valuation, "primitive_integers",
                            lambda v: scaled.append(v) or original(v))
        for semantics in ("bivalent", "born"):
            scaled.clear()
            status, _, _ = run(capsys, "eval", "--builtin", "cabello-c1c6",
                               "--state", "1/2,3,0,7", "--semantics", semantics)
            assert status == 0
            assert len(scaled) == 1

    def test_negative_first_entry_with_or_without_equals(self, capsys):
        spellings = (["--state", "-1,2,0,0"], ["--state=-1,2,0,0"],
                     ["--state", "-1/2, 3,0,-7"], ["--state=-1/2, 3,0,-7"])
        outputs = []
        for state in spellings:
            for fmt in ("text", "json"):
                status, out, err = run(capsys, "eval", "--builtin",
                                       "cabello-c1c6", *state, "--semantics",
                                       "born", "--format", fmt)
                assert status == 0 and err == ""
                if fmt == "json":
                    payload = json.loads(out)
                    assert payload["argv"][3:-4] == state
                    out = payload["result"]
                outputs.append(out)
        assert "state: (-1, 2, 0, 0)" in outputs[0]
        assert outputs[0:2] == outputs[2:4]
        assert outputs[4:6] == outputs[6:8]
        assert "state: (-1/2, 3, 0, -7)" in outputs[4]

    @pytest.mark.parametrize("state", ["1", "-2/3", "s"])
    def test_one_entry_states_in_q1(self, capsys, monkeypatch, tmp_path,
                                    state):
        # Q^1 holds one nonzero projector, the identity: every state is in
        # its range, so it is TRUE with Born weight 1
        path = tmp_path / "q1.pset"
        path.write_text("dim 1\nvec a = 1\nstate s = 3\n")
        judged = []

        def recorded(judge):
            def wrapper(state, p):
                judged.append(judge(state, p))
                return judged[-1]
            return wrapper

        for name in ("evaluate_bivalent", "born_value"):
            monkeypatch.setattr(cli, name, recorded(getattr(cli, name)))
        shown = "3" if state == "s" else state
        for semantics in ("bivalent", "born"):
            status, out, err = run(capsys, "eval", str(path), "--state", state,
                                   "--semantics", semantics)
            assert status == 0 and err == ""
            assert f"state: ({shown})" in out
        assert "gaps: none" in run(capsys, "eval", str(path), "--state",
                                   state)[1]
        assert judged == [TruthValue.TRUE, Fraction(1), TruthValue.TRUE]

    @pytest.mark.parametrize("semantics", ["bivalent", "born"])
    @pytest.mark.parametrize("text,state", [
        ("dim 1\nvec a = 1\n", "1"),
        ("dim 2\nvec a = 1 0\nvec b = 0 1\nspan I = a b\n", "1,0")])
    def test_no_context_to_evaluate_is_said(self, capsys, tmp_path, text,
                                            state, semantics):
        # a lone identity projector forms no maximal context of two or more
        path = tmp_path / "lone.pset"
        path.write_text(text)
        argv = ["eval", str(path), "--state", state, "--semantics", semantics]
        status, out, err = run(capsys, *argv)
        assert (status, err) == (0, "")
        assert "\ncontexts: none\n" in out
        assert "context " not in out
        _, report = run_json(capsys, *argv)
        assert report["result"]["contexts"] == []

    @pytest.mark.parametrize("q1,state", [(False, "1"), (False, "x"),
                                          (True, "x")])
    def test_one_entry_elsewhere_keeps_its_message(self, capsys, tmp_path,
                                                   q1, state):
        source = ["--builtin", "cabello-c1c6"]
        if q1:
            source = [str(tmp_path / "q1.pset")]
            Path(source[0]).write_text("dim 1\nvec a = 1\n")
        status, out, err = run(capsys, "eval", *source, "--state", state)
        assert (status, out) == (1, "")
        assert err == (f"--state {state!r} is neither a declared state label "
                       "nor an inline vector like 0,0,0,1\n")

    @pytest.mark.parametrize("entry", ["\u0661", "0.5", "+1", "1e3", "1_0",
                                       "1/0", "1 /2", "", "9" * 5000])
    def test_inline_state_outside_the_pset_grammar_exits_1(self, capsys,
                                                             entry):
        status, out, err = run(capsys, "eval", "--builtin", "cabello-c1c6",
                               "--state", f"0,0,{entry},1")
        assert status == 1
        assert out == ""
        assert "bad rational" in err

    def test_huge_exponent_is_rejected_unread(self):
        # Fraction('1e10000000') alone takes seconds and a larger exponent
        # exhausts memory; the grammar turns it away before any arithmetic
        done = subprocess.run(
            [sys.executable, "-m", "kscontext.cli", "eval", "--builtin",
             "cabello-c1c6", "--state", "1e10000000,0,0,1"],
            capture_output=True, text=True, timeout=20,
            env={**os.environ, "PYTHONPATH": SRC})
        assert done.returncode == 1
        assert "bad rational" in done.stderr
        assert "Traceback" not in done.stderr


class TestLocalize:
    def test_pin_on_full_corpus(self, capsys):
        status, out, _ = run(capsys, "localize", "--builtin", "cabello-18",
                             "--fix", "P1_1=1")
        assert status == 0
        assert "fixed: P1_1=1" in out
        line = next(l for l in out.splitlines()
                    if l.startswith("both-contradict:"))
        assert "P6_1" in line and "P6_2" in line and "P6_3" in line

    def test_no_fix_on_sat_corpus(self, capsys):
        status, out, _ = run(capsys, "localize", "--builtin", "cabello-c1c6")
        assert status == 0
        assert "both-contradict: none" in out

    def test_inconsistent_fix_exits_2(self, capsys):
        status, out, _ = run(capsys, "localize", "--builtin", "cabello-c1c6",
                             "--fix", "P1_1=1,P1_2=1")
        assert status == 2
        assert "inconsistent fix" in out

    def test_malformed_fix_exits_1(self, capsys):
        status, _, err = run(capsys, "localize", "--builtin", "cabello-c1c6",
                             "--fix", "P1_1=7")
        assert status == 1

    def test_unknown_fix_label_exits_1(self, capsys):
        status, _, err = run(capsys, "localize", "--builtin", "cabello-c1c6",
                             "--fix", "nope=1")
        assert status == 1


DUPLICATE_MEMBER_PSET = """\
dim 3
vec a = 1 0 0
vec b = 0 1 0
vec c = 0 0 1
context C = a b b c
"""

_SUBCOMMANDS = (["validate"], ["color", "--mode", "all"],
                ["eval", "--state", "1,0,0"], ["localize"])


class TestDuplicateMember:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("argv", _SUBCOMMANDS, ids=lambda a: a[0])
    def test_rejected_at_parse(self, capsys, tmp_path, argv, fmt):
        path = tmp_path / "dup.pset"
        path.write_text(DUPLICATE_MEMBER_PSET)
        status, out, err = run(capsys, argv[0], str(path), *argv[1:],
                               "--format", fmt)
        assert (status, out) == (1, "")
        assert err == (f"{path}: line 5, column 17: "
                       f"context 'C' names 'b' twice\n")


_ENTRIES = st.sampled_from(["0", "1", "-1", "2", "-2", "1/2", "-2/3"])


@st.composite
def _small_psets(draw):
    """(PSET text, inline state) on at most 3 dimensions and 5 vectors;
    a span or a context may name one member more than once.  In about
    half the files the first vectors are the coordinate axes, so that
    maximal contexts are common."""
    dim = draw(st.integers(1, 3))
    entries = st.lists(_ENTRIES, min_size=dim, max_size=dim)
    axes = [["1" if i == k else "0" for i in range(dim)] for k in range(dim)]
    vectors = [f"v{i}" for i in range(draw(st.integers(1, 5)))]
    rows = axes[:len(vectors)] if draw(st.booleans()) else []
    rows += [draw(entries) for _ in vectors[len(rows):]]
    lines = [f"dim {dim}"]
    lines += [f"vec {v} = {' '.join(row)}" for v, row in zip(vectors, rows)]
    spans = draw(st.lists(st.lists(st.sampled_from(vectors), min_size=1,
                                   max_size=3), max_size=2))
    lines += [f"span s{i} = {' '.join(m)}" for i, m in enumerate(spans)]
    consumed = {m for members in spans for m in members}
    labels = ([v for v in vectors if v not in consumed]
              + [f"s{i}" for i in range(len(spans))])
    contexts = draw(st.lists(st.lists(st.sampled_from(labels), min_size=2,
                                      max_size=4), max_size=2))
    lines += [f"context C{i} = {' '.join(m)}" for i, m in enumerate(contexts)]
    return "\n".join(lines) + "\n", ",".join(draw(entries))


class TestSmallFilesFailClosed:
    """Every subcommand on a small file answers or exits with a
    documented status; none raises."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(_small_psets(), st.sampled_from(["text", "json"]))
    @example((DUPLICATE_MEMBER_PSET, "1,0,0"), "text")
    def test_documented_exit_status(self, case, fmt):
        text, state = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "small.pset"
            path.write_text(text)
            for command, *rest in _SUBCOMMANDS:
                if command == "eval":
                    rest = [f"--state={state}"]
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    status = main([command, str(path), *rest, "--format", fmt])
                assert status in (0, 1, 2, 3), (command, text)


class TestDashLabels:
    """Labels that start with '-', which the PSET grammar allows, named
    after --fix or --state with or without '='."""

    @pytest.mark.parametrize("split, glued, status, shown", [
        (["localize", "--fix", "-a=1"], ["localize", "--fix=-a=1"], 0,
         "forced-0: b"),
        (["localize", "--fix", "-a=1,b=1"], ["localize", "--fix=-a=1,b=1"], 2,
         "inconsistent fix"),
        (["eval", "--state", "-s"], ["eval", "--state=-s"], 0, "gaps: -a b"),
        (["eval", "--state", "-t"], ["eval", "--state=-t"], 1,
         "--state '-t' is neither"),
    ])
    def test_both_spellings_agree(self, capsys, tmp_path, split, glued,
                                  status, shown):
        path = tmp_path / "dash.pset"
        path.write_text("dim 2\nvec -a = 1 0\nvec b = 0 1\nstate -s = 1 1\n")
        for fmt in ("text", "json"):
            got = [run(capsys, command, str(path), *rest, "--format", fmt)
                   for command, *rest in (split, glued)]
            if fmt == "json" and status != 1:
                # the reports differ only in the argv they echo
                got = [(code, {**json.loads(out), "argv": None}, err)
                       for code, out, err in got]
            assert got[0] == got[1]
            assert got[0][0] == status
            if fmt == "text":
                assert shown in got[0][1] + got[0][2]


class TestCallsInOneProcess:
    def test_same_bytes_as_fresh_processes(self, capsys, monkeypatch,
                                           tmp_path):
        # one parser serves every call; nothing a call parses, pins or
        # prints reaches the next one
        broken = tmp_path / "broken.pset"
        broken.write_text("dim 4\nvec a = 1 2 x 4\n")
        bad = tmp_path / "bad.pset"
        bad.write_text(BAD_PSET)
        calls = [
            ["validate"],
            ["validate", "--builtin", "cabello-18"],
            ["color", "--builtin", "cabello-c1c6", "--mode", "most"],
            ["color", "--builtin", "cabello-c1c6", "--mode", "count",
             "--format", "json"],
            ["localize", "--builtin", "cabello-c1c6", "--fix", "P1_1=1"],
            ["localize", "--builtin", "cabello-c1c6"],
            ["localize", "--builtin", "cabello-c1c6", "--fix", "P1_1=1",
             "--format", "json"],
            ["localize", "--builtin", "cabello-c1c6", "--format", "json"],
            ["eval", "--builtin", "cabello-c1c6", "--state", "-1,2,0,0"],
            ["eval", "--builtin", "cabello-18", "--state", "-1,2,0,0",
             "--semantics", "born", "--format", "json"],
            ["eval", "--builtin", "cabello-c1c6", "--state", "1,x,0,0"],
            ["eval", "--builtin", "cabello-c1c6", "--state", "e4"],
            ["validate", str(broken)],
            ["validate", str(bad), "--format", "json"],
            ["color", "--builtin", "cabello-18", "--require-sat"],
        ]
        env = {**os.environ, "PYTHONPATH": SRC, "COLUMNS": "80"}
        monkeypatch.setenv("COLUMNS", "80")     # argparse's usage width
        cli._build_parser.cache_clear()
        in_process = []
        for argv in calls:
            status = main(argv)
            captured = capsys.readouterr()
            in_process.append((captured.out.encode(), captured.err.encode(),
                               status))
        assert cli._build_parser.cache_info().misses == 1
        for argv, got in zip(calls, in_process):
            done = subprocess.run([sys.executable, "-m", "kscontext.cli", *argv],
                                  capture_output=True, env=env, timeout=60)
            assert got == (done.stdout, done.stderr, done.returncode), argv
        assert [s for _, _, s in in_process] == [1, 0, 1, 0, 0, 0, 0, 0, 0,
                                                 0, 1, 0, 1, 2, 3]


SPAN_PSET = """\
dim 4
vec a = 1 0 0 0
vec b = 0 1 0 0
vec c = 0 0 1 1
vec d = 0 0 1 -1
vec e = 1 1 0 0
vec f = 1 -1 0 0
span ab = a b
context C = ab c d
context D = e f c d
state s = 1 2 1 0
"""


class TestColdAndWarmMemo:
    def test_second_round_prints_the_same_bytes(self, capsys, tmp_path,
                                                peres_file):
        # the idempotence memo starts empty, then answers every rebuild
        span_file = tmp_path / "span.pset"
        span_file.write_text(SPAN_PSET)
        calls = []
        for path, state, fix in ((peres_file, "1,1,0,0", "p00=1"),
                                 (span_file, "s", "ab=1")):
            calls += [["eval", str(path), "--state", state,
                       "--semantics", semantics, "--format", fmt]
                      for semantics in ("bivalent", "born")
                      for fmt in ("text", "json")]
            calls += [["validate", str(path)],
                      ["validate", str(path), "--format", "json"],
                      ["localize", str(path), "--format", "json"],
                      ["localize", str(path), "--fix", fix]]
            calls += [["color", str(path), "--mode", mode, "--format", "json"]
                      for mode in ("first", "count", "all")]
        linalg._idempotent.cache_clear()
        cold = [run(capsys, *argv) for argv in calls]
        misses = linalg._idempotent.cache_info().misses
        warm = [run(capsys, *argv) for argv in calls]
        assert linalg._idempotent.cache_info().misses == misses > 0
        for argv, first, second in zip(calls, cold, warm):
            assert second == first, argv
        assert [status for status, _, _ in cold] == [0] * len(calls)


class TestJsonFormat:
    def test_versioned_and_hashed(self, capsys):
        status, payload = run_json(capsys, "validate",
                                   "--builtin", "cabello-c1c6")
        assert status == 0
        assert payload["report_version"] == "2"
        assert len(payload["corpus"]["hash"]) == 64
        assert payload["corpus"]["projectors"] == 8
        assert payload["exit_status"] == 0

    def test_hash_stable_across_runs(self, capsys):
        _, p1 = run_json(capsys, "color", "--builtin", "cabello-18")
        _, p2 = run_json(capsys, "validate", "--builtin", "cabello-18")
        assert p1["corpus"]["hash"] == p2["corpus"]["hash"]

    def test_text_and_json_agree_on_numbers(self, capsys):
        _, payload = run_json(capsys, "eval", "--builtin", "cabello-c1c6",
                              "--state", "0,0,0,1", "--semantics", "born")
        weights = payload["result"]["contexts"][1]["weights"]
        assert weights == ["1/4", "1/4", "1/2", "0"]
        _, out, _ = run(capsys, "eval", "--builtin", "cabello-c1c6",
                        "--state", "0,0,0,1", "--semantics", "born")
        for member, w in zip(("P6_1", "P6_2", "P6_3", "P6_4"), weights):
            assert f"{member}={w}" in out

    def test_color_json_fields(self, capsys):
        status, payload = run_json(capsys, "color", "--builtin", "cabello-18",
                                   "--mode", "count")
        assert payload["result"]["status"] == "UNSAT"
        assert payload["result"]["count"] == 0
        assert payload["result"]["nodes_explored"] > 0

    @pytest.mark.parametrize("mode", ["first", "all", "count"])
    def test_only_unsat_names_a_violated_context(self, capsys, mode):
        violated = {"last_violated_context", "last_violated_members"}
        for name, status in (("cabello-18", "UNSAT"), ("cabello-c1c6", "SAT")):
            _, payload = run_json(capsys, "color", "--builtin", name,
                                  "--mode", mode)
            result = payload["result"]
            assert result["status"] == status
            assert "workers" not in result
            assert violated & set(result) == (violated if status == "UNSAT"
                                              else set())
            _, out, _ = run(capsys, "color", "--builtin", name, "--mode", mode)
            assert ("last violated context:" in out) == (status == "UNSAT")


def stdlib_render(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


def assert_renders_like_stdlib(capsys, monkeypatch, *argv, fmt="json"):
    """One call, then the same call with the standard library's `indent`
    encoder as the renderer: stdout, stderr and status agree."""
    got = run(capsys, *argv, "--format", fmt)
    with monkeypatch.context() as patched:
        patched.setattr(cli, "_render_json", stdlib_render)
        want = run(capsys, *argv, "--format", fmt)
    assert got == want
    return got


@pytest.fixture(scope="module")
def peres_file(tmp_path_factory):
    ps = peres24()
    tetrads = "".join(f"context T{i:02d} = {' '.join(c.members)}\n"
                      for i, c in enumerate(find_maximal_contexts(ps), start=1))
    path = tmp_path_factory.mktemp("peres") / "peres24.pset"
    path.write_text(emit(ps) + tetrads + "state s = 1 1 0 0\n")
    return path


_JSON_TEXT = st.text(st.sampled_from('"\\/\n\r\t\b\f\x00\x1f\x7f\u2028'
                                     'é€😀{}[],: ') | st.characters())
_JSON_SCALARS = (st.none() | st.booleans() | st.floats() | _JSON_TEXT
                 | st.integers(min_value=-10 ** 80, max_value=10 ** 80))
# lists of flat containers, some empty: the shape of most report lists
_FLAT_ITEMS = st.lists(
    st.dictionaries(_JSON_TEXT, _JSON_SCALARS, min_size=1, max_size=4)
    | st.lists(_JSON_SCALARS, min_size=1, max_size=4)
    | st.lists(_JSON_SCALARS, min_size=1, max_size=3).map(tuple)
    | st.sampled_from([{}, [], ()]), min_size=1, max_size=6)
_JSON_TREES = st.recursive(
    _JSON_SCALARS | _FLAT_ITEMS,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.lists(kids, max_size=3).map(tuple)
                  | st.dictionaries(_JSON_TEXT, kids, max_size=4)),
    max_leaves=40)

_INTS = st.integers(min_value=-10 ** 45, max_value=10 ** 45)


@st.composite
def _int_dict_lists(draw):
    """Lists of dicts over one drawn key set, each in its own key order,
    with int values; about one list in two has one bool or str value."""
    keys = draw(st.lists(_JSON_TEXT, min_size=1, max_size=5, unique=True))
    items = [dict(zip(draw(st.permutations(keys)), values)) for values in
             draw(st.lists(st.lists(_INTS, min_size=len(keys),
                                    max_size=len(keys)),
                           min_size=1, max_size=6))]
    if draw(st.booleans()):
        odd = draw(st.sampled_from(items))
        odd[draw(st.sampled_from(keys))] = draw(st.booleans() | _JSON_TEXT)
    return items


class _Tagged(int):
    def __repr__(self):
        return "tagged"


# lists that look like `color --mode all` witnesses, and near misses
_WITNESS_LIKE = {
    "escaped keys": [{'q"uote': 1, "back\\slash": 0, "%d": 2, "100%": 3,
                      "%%s%": 4, "é€😀": 5, "\x00\n\t\x1f\u2028": 6}] * 2,
    "one key": [{"a": 1}, {"a": 0}, {"a": 1}],
    "wide ints": [{"a": -1, "b": 10 ** 40}, {"a": -10 ** 40 + 7, "b": 0}],
    "bools": [{"a": True, "b": False}, {"a": False, "b": True}],
    "a bool among ints": [{"a": 1, "b": 0}, {"a": True, "b": 0}],
    "int subclass": [{"a": _Tagged(3), "b": 0}, {"a": 1, "b": 0}],
    "key orders differ": [{"a": 1, "b": 0, "c": 1}, {"c": 0, "a": 1, "b": 0}],
    "other keys, same size": [{"a": 1, "b": 0}, {"a": 0, "c": 1}],
    "fewer keys later": [{"a": 1, "b": 0}, {"a": 0}],
    "more keys later": [{"a": 1}, {"a": 0, "b": 1}],
    "int keys": [{2: 1, 1: 0}, {1: 1, 2: 0}],
    "a str value": [{"a": 1, "b": "1"}, {"a": 0, "b": 1}],
    "dicts and lists": [{"a": 1}, [1, 0], {"a": 0}],
}

# the corpora with the fewest labels: no label, one ray, the identity
_TINY_PSETS = {"empty": "dim 2\n",
               "one-ray": "dim 3\nvec a = 1 2 3\n",
               "identity": "dim 2\nvec a = 1 0\nvec b = 0 1\nspan I = a b\n"}


def _report(witnesses=None, argv=(), **extra):
    """A report shaped like `main`'s: `witnesses`, unless None, at
    result["witnesses"], `extra` as further result keys, and `argv` after
    an entry that holds the text `"witnesses": null`."""
    result = {"mode": "all", "status": "SAT", **extra}
    if witnesses is not None:
        result["witnesses"] = witnesses
    return {"report_version": cli.REPORT_VERSION, "command": "color",
            "argv": ["color", '"witnesses": null.pset', *argv],
            "corpus": {"source": '"witnesses": null.pset', "dimension": 3},
            "result": result, "exit_status": 0}


def record_encoder_starts(monkeypatch) -> list:
    """The object each indent encoding starts from, from now on."""
    started = []
    make = json.encoder._make_iterencode

    def recording(*args, **kwargs):
        iterencode = make(*args, **kwargs)

        def start(obj, level):
            started.append(obj)
            return iterencode(obj, level)
        return start

    monkeypatch.setattr(json.encoder, "_make_iterencode", recording)
    return started


class TestJsonRendering:
    """The report renderer against `json.dumps(indent=2, sort_keys=True)`."""

    @pytest.mark.parametrize("source", ["cabello-c1c6", "cabello-18", "peres"])
    def test_every_command_renders_like_stdlib(self, capsys, monkeypatch,
                                               peres_file, source):
        src = [str(peres_file)] if source == "peres" else ["--builtin", source]
        first, second = ("p00", "p01") if source == "peres" else ("P1_1", "P1_2")
        calls = [["validate"],
                 ["localize"], ["localize", "--fix", f"{first}=1"],
                 ["localize", "--fix", f"{first}=1,{second}=1"]]
        calls += [["color", "--mode", mode] for mode in ("first", "all", "count")]
        calls += [["eval", "--state", state, "--semantics", semantics]
                  for state in ("0,0,0,1", "1/2,-1,1,1")
                  for semantics in ("bivalent", "born")]
        statuses = set()
        for command, *rest in calls:
            status, out, err = assert_renders_like_stdlib(
                capsys, monkeypatch, command, *src, *rest)
            assert err == ""
            statuses.add(status)
        assert 0 in statuses

    def test_thousands_of_witnesses_render_like_stdlib(self, capsys,
                                                       monkeypatch, tmp_path):
        ps = random_split_corpus(Random(12), 3)
        count = admissible_assignments(ps, mode="count").count
        assert count >= 1000
        path = tmp_path / "split.pset"
        path.write_text(emit(ps))
        status, out, _ = assert_renders_like_stdlib(
            capsys, monkeypatch, "color", str(path), "--mode", "all")
        assert status == 0
        assert len(json.loads(out)["result"]["witnesses"]) == count

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("mode", ["first", "all", "count"])
    @pytest.mark.parametrize("name", sorted(_TINY_PSETS))
    def test_tiny_sets_render_like_stdlib(self, capsys, monkeypatch,
                                          tmp_path, name, mode, fmt):
        path = tmp_path / f"{name}.pset"
        path.write_text(_TINY_PSETS[name])
        status, out, err = assert_renders_like_stdlib(
            capsys, monkeypatch, "color", str(path), "--mode", mode, fmt=fmt)
        assert (status, err) == (0, "")
        if fmt == "json" and mode == "all":
            assert json.loads(out)["result"]["witnesses"] == {
                "empty": [{}], "one-ray": [{"a": 1}, {"a": 0}],
                "identity": [{"I": 1}]}[name]

    def test_witnesses_skip_the_encoder(self, capsys, monkeypatch):
        started = record_encoder_starts(monkeypatch)
        status, out, err = run(capsys, "color", "--builtin", "cabello-c1c6",
                               "--mode", "all", "--format", "json")
        witnesses = [{"b": k % 2, "a": k // 2 % 2} for k in range(1000)]
        report = _report(witnesses)
        rendered = cli._render_json(report)
        monkeypatch.undo()
        # each encoding starts from a report that holds no witness list
        assert [s["result"]["witnesses"] for s in started] == [None, None]
        assert status == 0 and err == ""
        assert out == stdlib_render(json.loads(out)) + "\n"
        assert rendered == stdlib_render(report)

    @pytest.mark.parametrize("argv", [
        ["validate", "--builtin", "cabello-18"],
        ["color", "--builtin", "cabello-c1c6", "--mode", "all"],
        ["color", "--builtin", "cabello-18", "--mode", "all"],
        ["color", "--builtin", "cabello-c1c6", "--mode", "count"],
        ["eval", "--builtin", "cabello-c1c6", "--state", "1,0,0,0"],
        ["localize", "--builtin", "cabello-c1c6", "--fix", "P1_1=1"],
    ])
    def test_indent_encoder_starts_once_per_report(self, capsys, monkeypatch,
                                                   argv):
        started = record_encoder_starts(monkeypatch)
        status, out, err = run(capsys, *argv, "--format", "json")
        monkeypatch.undo()
        assert (status, err) == (0, "")
        # the one start is the report itself, never a witness dict
        assert [s["argv"] for s in started] == [[*argv, "--format", "json"]]
        assert not started[0]["result"].get("witnesses")
        assert out == stdlib_render(json.loads(out)) + "\n"

    @pytest.mark.parametrize("name", sorted(_WITNESS_LIKE))
    def test_witness_like_lists_render_like_stdlib(self, name):
        items = _WITNESS_LIKE[name]
        for report in (_report(items), _report(items, ["--mode", "all"],
                                               count=len(items), z=[items])):
            assert cli._render_json(report) == stdlib_render(report)

    def test_a_second_witnesses_key_renders_like_stdlib(self):
        items = [{"a": 1, "b": 0}, {"a": 0, "b": 1}]
        for other in ("corpus", "zz"):
            report = {**_report(items), other: {"witnesses": None}}
            assert cli._render_json(report) == stdlib_render(report)

    @settings(max_examples=300, deadline=None, database=None)
    @given(_int_dict_lists())
    def test_int_dict_lists_render_like_stdlib(self, items):
        for report in (_report(items), _report(items, ["-k"], k=0)):
            assert cli._render_json(report) == stdlib_render(report)

    def test_witnesses_reach_the_renderer_uncopied(self, capsys, monkeypatch):
        results, reports = [], []
        search = cli.admissible_assignments
        monkeypatch.setattr(cli, "admissible_assignments",
                            lambda *a, **k: results.append(search(*a, **k))
                            or results[-1])
        monkeypatch.setattr(cli, "_render_json",
                            lambda report: reports.append(report) or "")
        run(capsys, "color", "--builtin", "cabello-c1c6", "--mode", "all",
            "--format", "json")
        rendered = reports[0]["result"]["witnesses"]
        assert len(rendered) == results[0].count > 1
        assert all(r is w.values for r, w in zip(rendered, results[0].witnesses))

    @settings(max_examples=300, deadline=None, database=None)
    @given(_JSON_TREES)
    @example({})
    @example([])
    @example({"a": {}, "b": [], "c": [[]], "d": [{}, ()]})
    @example({"k": "line\nbreak, \"quoted\" \\ ü", "n": [1, 2.5, None, True]})
    @example([float("nan"), float("inf"), -0.0, 10 ** 70, False])
    @example([{"a": "},\n  {"}, {"b": "]"}, {"c": "}, {"}])
    @example({"w": [[1, "],["], {"k": "}, {", "j": 0}, ("[", "{")]})
    @example({"w": [{"a": 0, "b": 1}, [True, None], ("s",)], "e": [{"x": 1}, {}]})
    @example([[{"a": 1}], {"b": [2]}])
    @example([OrderedDict(a=[1]), OrderedDict(b=2)])
    @example({"w": [Counter(a=1, b=0), Counter(c=1)]})
    @example({1: [{"a": 1}]})
    @example({1: [{"a": 1}], 2: 0})
    @example({"x": {"y": {"w": [{"a": 1, "b": 0}]}}})
    @example({"d": {}, "l": []})
    def test_trees_render_like_stdlib(self, tree):
        witnesses = [{"b": 0, "a": 1}, {"a": 0, "b": 1}]
        for report in (_report(None, [tree], tree=tree),
                       _report([], [tree], tree=tree),
                       _report(witnesses, [tree], tree=tree, u=[tree])):
            assert cli._render_json(report) == stdlib_render(report)
