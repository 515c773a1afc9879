"""Assignment checking and the exhaustive coloring search.

Counts and statuses are cross-checked against naive 2^n enumeration;
witnesses must round-trip through check_assignment.
"""

import itertools
import sys
from random import Random

import pytest

from kscontext import search
from kscontext import (Assignment, InconsistentAssignmentError, PinVerdict,
                       ProjectorSet, UnknownLabelError,
                       admissible_assignments, builtin, check_assignment,
                       localized_indefiniteness_certificate, parse,
                       projector_from_span, to_projector_set)

from _gen import (brute_admissible, first_shared_context, oracle_adjacency,
                  peres24, random_ray_corpus, recursive_search_task)


@pytest.fixture(scope="module")
def c1c6():
    return builtin("cabello-c1c6")


@pytest.fixture(scope="module")
def cabello18():
    return builtin("cabello-18")


def single_context_corpus():
    rays = [(0, 0, 0, 1), (0, 1, 0, 0), (1, 0, 1, 0), (1, 0, -1, 0)]
    return ProjectorSet(4, {f"p{i}": projector_from_span([r], f"p{i}")
                            for i, r in enumerate(rays, start=1)})


def disjoint_contexts_corpus():
    # two full bases with no cross-orthogonality: every e_i dots +-1
    # against every second-family ray
    rays = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
            (1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1)]
    return ProjectorSet(4, {f"q{i}": projector_from_span([r], f"q{i}")
                            for i, r in enumerate(rays, start=1)})


class TestCheckAssignment:
    def test_one_true_rest_false_is_clean(self, c1c6):
        a = {"P1_1": 1, "P1_2": 0, "P1_3": 0, "P1_4": 0}
        assert check_assignment(c1c6, a) == []

    def test_two_true_is_one_violation(self, c1c6):
        a = {"P1_1": 1, "P1_2": 1, "P1_3": 0, "P1_4": 0}
        violations = check_assignment(c1c6, a)
        assert len(violations) == 1
        assert violations[0].context.label == "C1"
        assert violations[0].assigned_sum == 2

    def test_all_zero_context_is_violation(self, c1c6):
        a = {"P6_1": 0, "P6_2": 0, "P6_3": 0, "P6_4": 0}
        violations = check_assignment(c1c6, a)
        assert [(v.context.label, v.assigned_sum) for v in violations] == [("C6", 0)]

    def test_partial_contexts_undetermined_not_violated(self, c1c6):
        assert check_assignment(c1c6, {"P1_1": 0}) == []

    def test_unknown_label_raises(self, c1c6):
        with pytest.raises(UnknownLabelError):
            check_assignment(c1c6, {"nope": 1})

    def test_non_binary_value_rejected(self, c1c6):
        with pytest.raises(ValueError):
            check_assignment(c1c6, {"P1_1": 2})
        with pytest.raises(ValueError):
            Assignment({"P1_1": 2})


class TestAdmissibleAssignments:
    def test_single_context_has_four_witnesses(self):
        ps = single_context_corpus()
        result = admissible_assignments(ps, mode="all")
        assert result.status == "SAT"
        assert result.count == 4
        for w in result.witnesses:
            assert sum(w.values.values()) == 1
            assert check_assignment(ps, w) == []

    def test_disjoint_contexts_multiply(self):
        ps = disjoint_contexts_corpus()
        result = admissible_assignments(ps, mode="count")
        assert result.count == 16
        count, _ = brute_admissible(ps)
        assert count == 16

    def test_full_corpus_unsat(self, cabello18):
        result = admissible_assignments(cabello18, mode="first")
        assert result.status == "UNSAT"
        assert result.witness is None
        assert result.nodes_explored > 0
        assert result.violated_context is not None

    def test_unsat_stable_under_label_permutation(self, cabello18):
        rng = Random(3)
        items = list(cabello18.projectors.items())
        for _ in range(3):
            rng.shuffle(items)
            renamed = {f"x{i}_{l}": p for i, (l, p) in enumerate(items)}
            ps = ProjectorSet(4, renamed)
            assert admissible_assignments(ps, mode="count").count == 0

    def test_c1c6_alone_is_sat(self, c1c6):
        result = admissible_assignments(c1c6, mode="first")
        assert result.status == "SAT"
        assert check_assignment(c1c6, result.witness) == []

    def test_fixed_pin_respected(self, c1c6):
        result = admissible_assignments(c1c6, mode="all", fixed={"P1_1": 1})
        assert result.status == "SAT"
        assert all(w.values["P1_1"] == 1 for w in result.witnesses)

    def test_mode_count_equals_len_witnesses(self, c1c6):
        full = admissible_assignments(c1c6, mode="all")
        count = admissible_assignments(c1c6, mode="count")
        assert count.count == len(full.witnesses)

    def test_oracle_equivalence_random_corpora(self):
        rng = Random(181818)
        for _ in range(25):
            ps = random_ray_corpus(rng, rng.randint(2, 4), max_rays=10)
            expected_count, expected_models = brute_admissible(ps)
            result = admissible_assignments(ps, mode="all")
            assert result.count == expected_count
            got = {frozenset(l for l, v in w.values.items() if v == 1)
                   for w in result.witnesses}
            assert got == expected_models

    def test_every_witness_total(self, c1c6):
        for w in admissible_assignments(c1c6, mode="all").witnesses:
            assert w.is_total_for(c1c6)

    def test_unknown_fixed_label(self, c1c6):
        with pytest.raises(UnknownLabelError):
            admissible_assignments(c1c6, fixed={"zzz": 1})


class TestWorkers:
    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_results_identical_for_any_worker_count(self, workers, c1c6, cabello18):
        base_all = admissible_assignments(c1c6, mode="all", workers=1)
        par_all = admissible_assignments(c1c6, mode="all", workers=workers)
        assert par_all.status == base_all.status
        assert par_all.count == base_all.count
        assert par_all.witnesses == base_all.witnesses

        base_first = admissible_assignments(c1c6, mode="first", workers=1)
        par_first = admissible_assignments(c1c6, mode="first", workers=workers)
        assert par_first.witness == base_first.witness

        assert admissible_assignments(
            cabello18, mode="first", workers=workers).status == "UNSAT"

    def test_invalid_worker_count(self, c1c6):
        with pytest.raises(ValueError):
            admissible_assignments(c1c6, workers=0)

    def test_pool_size_capped_at_cpu_count(self, monkeypatch):
        monkeypatch.setattr(search.os, "cpu_count", lambda: 3)
        assert [search._pool_size(w) for w in (1, 2, 3, 4, 10 ** 9)] == \
            [1, 2, 3, 3, 3]
        monkeypatch.setattr(search.os, "cpu_count", lambda: None)
        assert search._pool_size(10 ** 9) == 1

    def test_huge_request_is_capped_before_splitting(self, c1c6, monkeypatch):
        # on one CPU the capped request is serial: no prefixes, no pool
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(search.os, "cpu_count", lambda: 1)
        monkeypatch.setattr(search, "ProcessPoolExecutor", no_pool)
        huge = admissible_assignments(c1c6, mode="count", workers=10 ** 9)
        assert huge == admissible_assignments(c1c6, mode="count")


class TestLocalizedCertificate:
    def test_single_context_pin_forces_partners(self):
        ps = single_context_corpus()
        verdicts = localized_indefiniteness_certificate(ps, {"p1": 1})
        assert verdicts == {"p2": PinVerdict.FORCED_ZERO,
                            "p3": PinVerdict.FORCED_ZERO,
                            "p4": PinVerdict.FORCED_ZERO}

    def test_unsat_corpus_everything_contradicts(self, cabello18):
        verdicts = localized_indefiniteness_certificate(cabello18, {"P1_1": 1})
        assert verdicts["P6_1"] is PinVerdict.BOTH_CONTRADICT
        assert set(verdicts) == set(cabello18.projectors) - {"P1_1"}
        assert all(v is PinVerdict.BOTH_CONTRADICT for v in verdicts.values())

    def test_sat_corpus_nothing_contradicts_without_fixings(self, c1c6):
        verdicts = localized_indefiniteness_certificate(c1c6)
        assert set(verdicts) == set(c1c6.projectors)
        assert PinVerdict.BOTH_CONTRADICT not in verdicts.values()

    def test_inconsistent_pair_rejected(self, c1c6):
        with pytest.raises(InconsistentAssignmentError):
            localized_indefiniteness_certificate(
                c1c6, {"P1_1": 1, "P1_2": 1})

    def test_inconsistent_context_sum_rejected(self, c1c6):
        with pytest.raises(InconsistentAssignmentError) as err:
            localized_indefiniteness_certificate(
                c1c6, {"P1_1": 0, "P1_2": 0, "P1_3": 0, "P1_4": 0})
        assert err.value.context == ("P1_1", "P1_2", "P1_3", "P1_4")

    def test_verdicts_match_brute_force(self):
        rng = Random(90125)
        for _ in range(8):
            ps = random_ray_corpus(rng, rng.randint(2, 3), max_rays=7)
            _, models = brute_admissible(ps)
            labels = sorted(ps.projectors)
            pin = labels[0]
            for pin_value in (0, 1):
                try:
                    verdicts = localized_indefiniteness_certificate(
                        ps, {pin: pin_value})
                except InconsistentAssignmentError:
                    continue
                surviving = [m for m in models
                             if (pin in m) == bool(pin_value)]
                for label in labels[1:]:
                    ones = [m for m in surviving if label in m]
                    zeros = [m for m in surviving if label not in m]
                    expected = {
                        (True, True): PinVerdict.UNCONSTRAINED,
                        (True, False): PinVerdict.FORCED_ONE,
                        (False, True): PinVerdict.FORCED_ZERO,
                        (False, False): PinVerdict.BOTH_CONTRADICT,
                    }[(bool(ones), bool(zeros))]
                    assert verdicts[label] is expected


def plain_certificate(ps, fixed):
    """Two independent searches per unfixed label, no reuse."""
    kinds = {(True, True): PinVerdict.UNCONSTRAINED,
             (True, False): PinVerdict.FORCED_ONE,
             (False, True): PinVerdict.FORCED_ZERO,
             (False, False): PinVerdict.BOTH_CONTRADICT}
    return {label: kinds[tuple(
                admissible_assignments(ps, fixed={**fixed, label: v}).status
                == "SAT" for v in (1, 0))]
            for label in sorted(ps.projectors) if label not in fixed}


class TestWitnessReuse:
    def cases(self):
        for name in ("cabello-c1c6", "cabello-18"):
            for fixed in ({}, {"P1_1": 1}, {"P1_1": 0}, {"P6_2": 1, "P1_3": 1}):
                yield builtin(name), fixed
        rng = Random(8086)
        for _ in range(25):
            ps = random_ray_corpus(rng, rng.randint(2, 4), max_rays=9)
            first = sorted(ps.projectors)[0]
            for fixed in ({}, {first: 1}, {first: 0}):
                yield ps, fixed

    def test_same_verdicts_in_the_same_order_as_plain_search(self):
        checked = 0
        for ps, fixed in self.cases():
            try:
                verdicts = localized_indefiniteness_certificate(ps, fixed)
            except InconsistentAssignmentError:
                continue
            assert list(verdicts.items()) == \
                list(plain_certificate(ps, fixed).items())
            checked += 1
        assert checked > 60

    def test_fewer_searches(self, c1c6, cabello18, monkeypatch):
        calls = []
        original = search._search_task
        monkeypatch.setattr(search, "_search_task",
                            lambda *a: calls.append(a) or original(*a))
        verdicts = localized_indefiniteness_certificate(c1c6)
        assert set(verdicts.values()) == {PinVerdict.UNCONSTRAINED}
        assert 1 < len(calls) < 2 * len(verdicts)
        calls.clear()
        # an UNSAT corpus needs its one search without pins
        localized_indefiniteness_certificate(cabello18, {"P1_1": 1})
        assert len(calls) == 1


def summary(violations):
    return [(v.kind, v.context.members, v.assigned_sum) for v in violations]


class TestOneAdmissibilityRule:
    """check_assignment, the search and the --fix check judge alike."""

    def test_check_agrees_with_brute_force_on_every_total_assignment(self):
        rng = Random(4040)
        for _ in range(40):
            ps = random_ray_corpus(rng, rng.randint(2, 4), max_rays=8)
            _, models = brute_admissible(ps)
            labels = list(ps.projectors)
            for bits in itertools.product((0, 1), repeat=len(labels)):
                ones = frozenset(l for l, b in zip(labels, bits) if b)
                clean = check_assignment(ps, dict(zip(labels, bits))) == []
                assert clean == (ones in models), (ps, sorted(ones))

    def test_orthogonal_pair_outside_every_context(self):
        ps = ProjectorSet(3, {"a": projector_from_span([(1, 0, 0)]),
                              "b": projector_from_span([(0, 1, 0)])})
        assert summary(check_assignment(ps, {"a": 1, "b": 1})) == \
            [("pair", ("a", "b"), 2)]
        assert admissible_assignments(ps, mode="count").count == 3
        with pytest.raises(InconsistentAssignmentError,
                           match="orthogonal projectors a and b") as err:
            localized_indefiniteness_certificate(ps, {"a": 1, "b": 1})
        assert err.value.context is None

    def test_identity_span_set_to_zero(self):
        ps = to_projector_set(parse(
            "dim 2\nvec x = 1 0\nvec y = 0 1\nspan I = x y\nvec r = 1 1\n"))
        assert summary(check_assignment(ps, {"I": 0})) == [("forced", ("I",), 0)]
        assert check_assignment(ps, {"I": 1}) == []
        with pytest.raises(InconsistentAssignmentError,
                           match="I is the identity projector"):
            localized_indefiniteness_certificate(ps, {"I": 0})

    def test_pair_inside_a_context_is_that_context(self, c1c6):
        assert summary(check_assignment(c1c6, {"P1_1": 1, "P1_2": 1})) == \
            [("context", ("P1_1", "P1_2", "P1_3", "P1_4"), 2)]
        with pytest.raises(InconsistentAssignmentError,
                           match="orthogonal projectors P1_1 and P1_2 both "
                                 "fixed to 1") as err:
            localized_indefiniteness_certificate(c1c6, {"P1_1": 1, "P1_2": 1})
        assert err.value.context == ("P1_1", "P1_2", "P1_3", "P1_4")


class SerialPool:
    """Stands in for ProcessPoolExecutor: runs every task in this process
    and records the prefixes it was handed."""

    prefixes: list = []

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        tasks = list(zip(*iterables))
        SerialPool.prefixes = [seed for _, seed, _ in tasks]
        return [fn(*task) for task in tasks]


def oracle_cases():
    for name in ("cabello-c1c6", "cabello-18"):
        ps = builtin(name)
        for fixed in ({}, {"P1_1": 1}, {"P1_1": 0}, {"P6_2": 1, "P1_3": 1},
                      {"P1_1": 1, "P1_2": 1}):
            yield ps, fixed
    ps = peres24()
    for fixed in ({}, {"p00": 1}, {"p23": 0}):
        yield ps, fixed
    rng = Random(5150)
    for _ in range(30):
        ps = random_ray_corpus(rng, rng.randint(2, 4), max_rays=10)
        labels = sorted(ps.projectors)
        for fixed in ({}, {labels[0]: 1}, {labels[-1]: 0},
                      {labels[0]: 1, labels[-1]: 1}):
            yield ps, fixed


def assert_same_result(got, want):
    for field in ("status", "witness", "count", "witnesses", "nodes_explored",
                  "violated_context", "violated_members"):
        assert getattr(got, field) == getattr(want, field), field
    if got.witnesses is not None:
        assert [list(w.values.items()) for w in got.witnesses] == \
            [list(w.values.items()) for w in want.witnesses]


class TestKernelAgainstRecursiveOracle:
    """The iterative kernel walks the recursive kernel's tree."""

    @pytest.mark.parametrize("mode", ["first", "all", "count"])
    def test_same_result_field_by_field(self, mode):
        checked = 0
        for ps, fixed in oracle_cases():
            net = search._build_network(ps)
            seed = search._seed_from_fixed(net, fixed)
            got = search._merge(net, [search._search_task(net, seed, mode)], mode)
            want = search._merge(
                net, [recursive_search_task(ps, net, seed, mode)], mode)
            assert_same_result(got, want)
            assert_same_result(
                admissible_assignments(ps, mode=mode, fixed=fixed), want)
            checked += 1
        assert checked == 133

    def test_pair_contexts_are_the_first_shared_context(self):
        for ps, fixed in oracle_cases():
            if fixed:
                continue
            net = search._build_network(ps)
            assert net.pairs == tuple(
                tuple((j, first_shared_context(net, i, j)) for j in neighbours)
                for i, neighbours in enumerate(oracle_adjacency(ps, net)))

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_same_result_on_every_split_prefix(self, workers, monkeypatch):
        monkeypatch.setattr(search.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(search, "ProcessPoolExecutor", SerialPool)
        for ps, fixed in itertools.islice(oracle_cases(), 0, None, 4):
            net = search._build_network(ps)
            for mode in ("first", "all", "count"):
                SerialPool.prefixes = []
                split = admissible_assignments(ps, mode=mode, workers=workers,
                                               fixed=fixed)
                if len(net.labels) <= len(fixed):
                    continue
                assert len(SerialPool.prefixes) > 1
                parts = [recursive_search_task(ps, net, prefix, mode)
                         for prefix in SerialPool.prefixes]
                for prefix, part in zip(SerialPool.prefixes, parts):
                    assert search._search_task(net, prefix, mode) == part
                assert_same_result(split, search._merge(net, parts, mode))

    def test_thousands_of_free_variables_need_no_recursion(self):
        # pairwise non-orthogonal rays: (1, a) . (1, b) = 1 + ab > 0, so
        # no constraint binds and every level decides one variable
        n = 1500
        assert n > sys.getrecursionlimit()
        ps = ProjectorSet(2, {f"r{k}": projector_from_span([(1, k)])
                              for k in range(1, n + 1)})
        result = admissible_assignments(ps, mode="first")
        assert result.status == "SAT"
        assert result.nodes_explored == n + 1
        assert set(result.witness.values.values()) == {1}


class TestPoolFallback:
    def test_fallback_warns_and_matches_the_pool(self, c1c6, cabello18,
                                                  monkeypatch):
        def no_processes(max_workers):
            raise PermissionError("process creation is not permitted")

        monkeypatch.setattr(search.os, "cpu_count", lambda: 4)
        for ps in (c1c6, cabello18):
            for mode in ("first", "all", "count"):
                monkeypatch.setattr(search, "ProcessPoolExecutor", SerialPool)
                pooled = admissible_assignments(ps, mode=mode, workers=4)
                monkeypatch.setattr(search, "ProcessPoolExecutor", no_processes)
                with pytest.warns(RuntimeWarning,
                                  match="worker pool unavailable.*"
                                        "process creation is not permitted"):
                    fallback = admissible_assignments(ps, mode=mode, workers=4)
                assert fallback == pooled
                serial = admissible_assignments(ps, mode=mode)
                assert (fallback.status, fallback.witness, fallback.count,
                        fallback.witnesses) == \
                    (serial.status, serial.witness, serial.count,
                     serial.witnesses)
