"""Assignment checking and the exhaustive coloring search.

Counts and statuses are cross-checked against naive 2^n enumeration;
witnesses must round-trip through check_assignment.
"""

import itertools
import sys
from fractions import Fraction
from random import Random

import pytest

from kscontext import search
from kscontext import (Assignment, InconsistentAssignmentError, PinVerdict,
                       ProjectorSet, UnknownLabelError,
                       admissible_assignments, builtin, check_assignment,
                       localized_indefiniteness_certificate,
                       orthogonality_graph, parse, projector_from_span,
                       to_projector_set)
from kscontext.contexts import OrthogonalityGraph, _members, _parts

from _gen import (brute_admissible, cube_ray_sample, d_roots,
                  first_shared_context, graph_components, oracle_adjacency,
                  peres24, random_orthogonal_basis, random_ray_corpus,
                  random_split_corpus, recursive_component_count,
                  recursive_search_task)


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


class TestAssignmentValues:
    """`Assignment` takes exactly the values equal to 0 or 1."""

    @pytest.mark.parametrize("value", [2, -1, None, "1", 0.5, [1]])
    def test_rejected_with_the_offending_values(self, value):
        message = f"assignment values must be 0 or 1, got {{'b': {value!r}}}"
        with pytest.raises(ValueError) as err:
            Assignment({"a": 1, "b": value, "c": 0})
        assert str(err.value) == message

    def test_every_offending_value_is_named(self):
        with pytest.raises(ValueError) as err:
            Assignment({"a": [1], "b": 1, "c": {0}, "d": "0"})
        assert str(err.value) == ("assignment values must be 0 or 1, got "
                                  "{'a': [1], 'c': {0}, 'd': '0'}")

    @pytest.mark.parametrize("value", [0, 1, True, 1.0])
    def test_accepted_and_kept(self, value):
        assert Assignment({"a": value, "b": 0}).values == {"a": value, "b": 0}
        assert Assignment({}).values == {}

    @pytest.mark.parametrize("wrap", [dict, Assignment])
    @pytest.mark.parametrize("value", [1.0, 0.0, Fraction(1)])
    @pytest.mark.parametrize("call", [
        check_assignment,
        localized_indefiniteness_certificate,
        lambda ps, fixed: admissible_assignments(ps, fixed=fixed)])
    def test_non_int_values_rejected_by_the_search(self, c1c6, call, value,
                                                   wrap):
        message = f"assignment values must be 0 or 1, got {{'P1_1': {value!r}}}"
        with pytest.raises(ValueError) as err:
            call(c1c6, wrap({"P1_1": value, "P1_2": 0}))
        assert str(err.value) == message


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

    @pytest.mark.parametrize("mode", ["Count", "", "any"])
    def test_unknown_mode_raises_before_any_work(self, c1c6, monkeypatch,
                                                 mode):
        # an unknown mode once walked every model with no counting cache:
        # 36,836,825,026,338 of them on the cube rays
        def no_work(*args):
            raise AssertionError("search work started")
        monkeypatch.setattr(search, "_checked_values", no_work)
        monkeypatch.setattr(search, "_network", no_work)
        for ps in (c1c6, cube_ray_sample()):
            with pytest.raises(ValueError) as err:
                admissible_assignments(ps, mode=mode)
            assert str(err.value) == (f"mode must be 'first', 'all' or "
                                      f"'count', got {mode!r}")

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
            assert set(w.values) == set(c1c6.projectors)

    def test_unknown_fixed_label(self, c1c6):
        with pytest.raises(UnknownLabelError):
            admissible_assignments(c1c6, fixed={"zzz": 1})


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
        # a counting pass would walk 688,236 nodes here (ROADMAP item 13)
        yield cube_ray_sample(), {}

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

    def test_each_pin_starts_from_its_components_state(self, monkeypatch):
        # 400 zero projectors and one fixing: 401 assignments reach the
        # state of the fixing, then each of 399 pins to 1 is one more;
        # re-propagating every forced value per pin took 160,799
        ps = ProjectorSet(2, {f"z{k:03d}": projector_from_span([(0, 0)])
                              for k in range(400)})
        calls = []
        original = search._assign
        monkeypatch.setattr(search, "_assign",
                            lambda *a: calls.append(a) or original(*a))
        verdicts = localized_indefiniteness_certificate(ps, {"z000": 0})
        assert set(verdicts.values()) == {PinVerdict.FORCED_ZERO}
        assert len(verdicts) == 399
        assert len(calls) == 401 + 399


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

    def test_rules_in_the_whole_sets_order_across_components(self):
        # the basis {x, y} and the identity are two components, {x, y}
        # first in decision order; a forced value still comes first
        ps = ProjectorSet(2, {"x": projector_from_span([(1, 0)]),
                              "y": projector_from_span([(0, 1)]),
                              "I": projector_from_span([(1, 0), (0, 1)])})
        assert components(ps) == [("x", "y"), ("I",)]
        fixed = {"x": 1, "y": 1, "I": 0}
        assert summary(check_assignment(ps, fixed)) == \
            [("forced", ("I",), 0), ("context", ("x", "y"), 2)]
        with pytest.raises(InconsistentAssignmentError,
                           match="I is the identity projector"):
            localized_indefiniteness_certificate(ps, fixed)


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


def assert_same_answer(got, want):
    """Status, witness, count, the witnesses, and each witness's key order."""
    for field in ("status", "witness", "count", "witnesses"):
        assert getattr(got, field) == getattr(want, field), field
    if got.witness is not None:
        assert list(got.witness.values) == list(want.witness.values)
    if got.witnesses is not None:
        assert [list(w.values.items()) for w in got.witnesses] == \
            [list(w.values.items()) for w in want.witnesses]


def assert_same_result(got, want):
    assert_same_answer(got, want)
    for field in ("nodes_explored", "violated_context", "violated_members"):
        assert getattr(got, field) == getattr(want, field), field


def oracle_task(ps, net, seed, mode):
    """The recursive oracle of `search._search_task`: the plain kernel in
    `first` and `all` mode, the component counter in `count` mode.  That
    one's count and witness are checked against the plain kernel's, and
    on UNSAT, where both walk the same tree, all of its fields."""
    plain = recursive_search_task(ps, net, seed, mode)
    if mode != "count":
        return plain
    cached = recursive_component_count(ps, net, seed)
    assert cached[:2] == plain[:2]
    if not plain[0]:
        assert cached == plain
    return cached


def whole_network(ps):
    """The set's one network, which every public call builds."""
    return search._network(ps)


def full_mask(net):
    return (1 << len(net.labels)) - 1


def components(ps):
    """The components that `admissible_assignments` searches, each as the
    labels of its mask in decision order."""
    net = whole_network(ps)
    return [tuple(_members(net.labels, comp))
            for comp in _parts(net.adj, full_mask(net))]


def seed_of(net, fixed):
    """The seed of the whole network: forced values, then the fixed
    values of its labels."""
    return search._seed(net, full_mask(net),
                        {l: v for l, v in fixed.items() if l in net.index})


def component_sets(ps):
    """Each connected component of `ps` as a set of its own, with its
    network, in order of its first label in the whole set's decision
    order.  The search's component masks hold these labels."""
    order = whole_network(ps).labels
    found = graph_components(ps, order)
    assert components(ps) == found
    parts = []
    for component in found:
        sub = ProjectorSet(ps.dimension, {l: ps[l] for l in component},
                           [c for c in ps.contexts
                            if set(c.members) <= set(component)])
        net = whole_network(sub)
        assert net.labels == component      # the relative decision order
        parts.append((sub, net))
    return parts


def as_acc(net, task):
    """A recursive oracle's (count, first, solutions, nodes, conflict) as
    the `_Acc` record of the search, each model as the int of its 1s."""
    count, first, solutions, nodes, conflict = task
    acc = search._Acc()
    acc.count, acc.nodes, acc.last_conflict = count, nodes, conflict
    if first is not None:
        acc.first = sum(v << net.index[l] for l, v in first.items())
    acc.solutions = [sum(v << i for i, v in enumerate(row)) for row in solutions]
    return acc


def component_oracle(parts, fixed, mode):
    """(nodes_explored, (violated_context, violated_members)) of a search
    that runs the recursive oracle on each of `component_sets` and stops
    after the first UNSAT one.  The nodes are one root plus each
    component's nodes less its own root; the conflict, on UNSAT only, is
    the last one of that UNSAT component."""
    nodes, violated = 1, (None, None)
    for sub, net in parts:
        count, _, _, part_nodes, conflict = oracle_task(
            sub, net, seed_of(net, fixed), mode)
        nodes += part_nodes - 1
        if not count:
            assert conflict is not None     # an UNSAT search always has one
            if conflict >= 0:
                violated = (net.maximal[conflict].display_name(),
                            tuple(sorted(net.maximal[conflict].members,
                                         key=net.index.__getitem__)))
            break
    return nodes, violated


def assert_component_result(got, want, parts, fixed, mode):
    """`got` answers as the monolithic `want`; its nodes and its last
    conflict are those of the per-component oracle."""
    assert_same_answer(got, want)
    assert (got.nodes_explored, (got.violated_context, got.violated_members)) \
        == component_oracle(parts, fixed, mode)


class TestKernelAgainstRecursiveOracle:
    """The iterative kernel walks the recursive kernel's tree."""

    @pytest.mark.parametrize("mode", ["first", "all", "count"])
    def test_same_result_field_by_field(self, mode):
        checked = 0
        for ps, fixed in oracle_cases():
            net = whole_network(ps)
            seed = seed_of(net, fixed)
            got = search._merge(
                net, [search._search_task(net, seed, mode, (0, 0))], mode)
            want = search._merge(
                net, [as_acc(net, oracle_task(ps, net, seed, mode))], mode)
            assert_same_result(got, want)
            public = admissible_assignments(ps, mode=mode, fixed=fixed)
            assert_component_result(public, want, component_sets(ps), fixed,
                                    mode)
            assert (public.violated_context, public.violated_members) == \
                (want.violated_context, want.violated_members)
            checked += 1
        assert checked == 133

    def test_sat_after_a_context_conflict_names_none(self):
        # the oracle cases' SAT searches meet pair conflicts at most; D6's
        # `all` walk ends on a context conflict and is still SAT
        ps = d_roots(6)
        net = whole_network(ps)
        assert search._search_task(net, seed_of(net, {}), "all",
                                   (0, 0)).last_conflict >= 0
        for mode in ("first", "all", "count"):
            got = admissible_assignments(ps, mode=mode)
            assert got.status == "SAT"
            assert (got.violated_context, got.violated_members) == (None, None)

    def test_pair_contexts_are_the_first_shared_context(self):
        outside = set()     # whether an edge lies outside every context
        for ps, fixed in oracle_cases():
            if fixed:
                continue
            net = whole_network(ps)
            adjacency = oracle_adjacency(ps, net)
            assert net.adj == tuple(sum(1 << j for j in neighbours)
                                    for neighbours in adjacency)
            for i, neighbours in enumerate(adjacency):
                for j in neighbours:
                    shared = first_shared_context(net, i, j)
                    assert search._shared(net, i, j) == \
                        (-1 if shared is None else shared)
                    outside.add(shared is None)
        assert outside == {True, False}

    @pytest.mark.parametrize("n, nodes", [(6, 453), (8, 2207)])
    def test_connected_root_systems(self, n, nodes):
        # the D_n root rays are one component with n * 2^(n-1) models, so
        # every node is searched on one network; `all` visits every model
        # (for `count`'s nodes see TestCachedCount)
        ps = d_roots(n)
        assert len(components(ps)) == 1
        for mode in ("first", "all", "count"):
            result = monolithic(ps, {}, mode)
            assert_same_result(admissible_assignments(ps, mode=mode), result)
            if mode != "first":
                assert result.count == n * 2 ** (n - 1)
            if mode == "all":
                assert result.nodes_explored == nodes

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


def disjoint_triads(k: int, seed: int) -> ProjectorSet:
    """k orthogonal bases of Q^3 with no ray orthogonal or proportional to
    a ray of another basis: k components of one context each."""
    rng = Random(seed)
    rays = []
    while len(rays) < 3 * k:
        basis = random_orthogonal_basis(rng, 3)
        if all(v.dot(r) and v.dot(v) * r.dot(r) != v.dot(r) ** 2
               for v in basis for r in rays):
            rays += basis
    return ProjectorSet(3, {f"t{i:02d}": projector_from_span([r])
                            for i, r in enumerate(rays)})


class TestCachedCount:
    """`count` walks to the first witness, then counts each residual
    component once per search."""

    @pytest.mark.parametrize("n, models, nodes", [
        (4, 64, 22), (6, 192, 132), (8, 1024, 262), (10, 5120, 436)])
    def test_root_systems(self, n, models, nodes):
        # n * 2^(n-1) models for n >= 6; D4 has more
        assert n < 6 or models == n * 2 ** (n - 1)
        ps = d_roots(n)
        first = admissible_assignments(ps, mode="first")
        for _ in range(2):      # nothing is kept from one search to the next
            result = admissible_assignments(ps, mode="count")
            assert (result.status, result.count, result.nodes_explored) == \
                ("SAT", models, nodes)
            assert result.witness == first.witness
            assert list(result.witness.values) == list(first.witness.values)

    def test_disjoint_triads_cost_one_node_more_each(self):
        # 3 models a triad: the walk is 4 nodes a triad, the count 4 nodes
        # and its witness walk 1 more
        ps = disjoint_triads(12, seed=5)
        assert list(map(len, components(ps))) == [3] * 12
        result = admissible_assignments(ps, mode="count")
        assert (result.count, result.nodes_explored) == (3 ** 12, 1 + 12 * 5)
        few = disjoint_triads(4, seed=5)
        walked = admissible_assignments(few, mode="all")
        assert (walked.count, walked.nodes_explored) == (3 ** 4, 1 + 4 * 4)

    def test_counts_match_brute_force(self):
        rng = Random(1212)
        corpora = []
        while len(corpora) < 80:
            ps = (random_ray_corpus(rng, rng.randint(2, 4), max_rays=12)
                  if len(corpora) % 2 else
                  random_split_corpus(rng, rng.randint(2, 4), max_rays=5))
            if len(ps) <= 12:
                corpora.append(ps)
        assert max(map(len, corpora)) == 12
        counts = set()
        for ps in corpora:
            _, models = brute_admissible(ps)
            labels = sorted(ps.projectors)
            for fixed in ({}, {labels[0]: 1}, {labels[-1]: 0}):
                want = sum(all((l in m) == bool(v) for l, v in fixed.items())
                           for m in models)
                got = admissible_assignments(ps, mode="count", fixed=fixed)
                assert got.count == want
                counts.add(want)
        assert max(counts) > 100

    def test_count_needs_no_recursion(self):
        # a recursive counter nests one frame or more per decision level
        ps = d_roots(10)
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 30)
        try:
            result = admissible_assignments(ps, mode="count")
        finally:
            sys.setrecursionlimit(limit)
        assert (result.status, result.count) == ("SAT", 5120)


def interleaved_pairs():
    """Two components in Q^3 whose labels interleave in decision order:
    the orthogonal pairs {p1, p4} and {p2, p3}, each in no maximal
    context, every other dot product 1."""
    rays = {"p1": (1, 0, 0), "p4": (0, 1, 0), "p2": (1, 1, 1), "p3": (1, 1, -2)}
    return ProjectorSet(3, {l: projector_from_span([r])
                            for l, r in sorted(rays.items())})


def cabello18_beside(extra: dict) -> ProjectorSet:
    ps = builtin("cabello-18")
    return ProjectorSet(4, {**ps.projectors,
                            **{l: projector_from_span([r])
                               for l, r in extra.items()}}, ps.contexts)


# a triad of Q^4: mutually orthogonal, no dot product 0 with a cabello-18 ray
GENERIC_TRIAD = {"T1": (0, 1, -2, 3), "T2": (2, -1, 1, 1), "T3": (3, 2, -2, -2)}

# 1025 times a rational rotation of Q^4, whose image of cabello-18 is
# orthogonal to none of its rays
ROTATION = ((327, -804, 208, -504), (-156, 487, -24, -888),
            (944, 312, -249, 12), (-168, -264, -972, -89))


def monolithic(ps, fixed, mode):
    """One `_search_task` over the whole network, merged as one part, and
    checked against `oracle_task`."""
    net = whole_network(ps)
    seed = seed_of(net, fixed)
    result = search._merge(
        net, [search._search_task(net, seed, mode, (0, 0))], mode)
    assert_same_result(result, search._merge(
        net, [as_acc(net, oracle_task(ps, net, seed, mode))], mode))
    return result


class TestComponents:
    """Each component searched on its own answers as one search does."""

    def test_seeded_split_corpora(self):
        rng = Random(6006)
        corpora = 0
        statuses = []
        while corpora < 200:
            ps = random_split_corpus(rng, rng.randint(2, 4), max_rays=5)
            parts = component_sets(ps)
            if len(parts) < 2:
                continue
            corpora += 1
            first, last = parts[0][1].labels[0], parts[-1][1].labels[-1]
            fixings = [{}, {first: 1}, {last: 0}, {first: 0, last: 1}]
            # two orthogonal 1s make their component UNSAT: in the first
            # component with an edge, and in the last
            edges = [pair for sub, _ in parts for pair in
                     itertools.combinations(sub.projectors, 2)
                     if pair[1] in orthogonality_graph(sub)[pair[0]]]
            if edges:
                fixings += [dict.fromkeys(edges[0], 1),
                            dict.fromkeys(edges[-1], 1)]
            for fixed in fixings:
                for mode in ("first", "all", "count"):
                    got = admissible_assignments(ps, mode=mode, fixed=fixed)
                    assert_component_result(got, monolithic(ps, fixed, mode),
                                            parts, fixed, mode)
                    statuses.append(got.status)
        assert statuses.count("SAT") == 2400
        assert statuses.count("UNSAT") > 600

    def test_interleaved_labels(self):
        ps = interleaved_pairs()
        net = whole_network(ps)
        assert net.labels == ("p1", "p2", "p3", "p4")
        assert components(ps) == [("p1", "p4"), ("p2", "p3")]
        result = admissible_assignments(ps, mode="all")
        # descending in (p1, p2, p3, p4), not component by component
        assert [tuple(w.values.values()) for w in result.witnesses] == [
            (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 0), (0, 1, 0, 1),
            (0, 1, 0, 0), (0, 0, 1, 1), (0, 0, 1, 0), (0, 0, 0, 1),
            (0, 0, 0, 0)]
        for mode in ("first", "all", "count"):
            assert_component_result(admissible_assignments(ps, mode=mode),
                                    monolithic(ps, {}, mode),
                                    component_sets(ps), {}, mode)

    def test_unsat_component_beside_a_sat_triad(self):
        ps = cabello18_beside(GENERIC_TRIAD)
        parts = component_sets(ps)
        assert [len(net.labels) for _, net in parts] == [18, 3]
        alone = admissible_assignments(builtin("cabello-18"), mode="count")
        for mode in ("first", "all", "count"):
            result = admissible_assignments(ps, mode=mode)
            assert result.status == "UNSAT" and result.witness is None
            assert result.count == (None if mode == "first" else 0)
            assert result.witnesses == (() if mode == "all" else None)
            assert_component_result(result, monolithic(ps, {}, mode),
                                    parts, {}, mode)
        # the triad after the UNSAT component is never searched
        assert result.nodes_explored == alone.nodes_explored
        assert result.violated_members == alone.violated_members

    def test_zero_projector_merges_the_components(self):
        ps = ProjectorSet(3, {**interleaved_pairs().projectors,
                              "z": projector_from_span([(0, 0, 0)])})
        assert len(components(ps)) == 1
        for mode in ("first", "all", "count"):
            assert_same_result(admissible_assignments(ps, mode=mode),
                               monolithic(ps, {}, mode))

    def test_lone_identity_projector(self):
        identity = projector_from_span([(1, 0), (0, 1)])
        alone = ProjectorSet(2, {"I": identity})
        result = admissible_assignments(alone, mode="all")
        assert (result.count, result.nodes_explored) == (1, 1)
        assert result.witnesses == (Assignment({"I": 1}),)
        ps = ProjectorSet(2, {"I": identity, "r": projector_from_span([(1, 1)])})
        assert len(component_sets(ps)) == 2
        for fixed in ({}, {"I": 0}, {"r": 1}):
            for mode in ("first", "all", "count"):
                assert_component_result(
                    admissible_assignments(ps, mode=mode, fixed=fixed),
                    monolithic(ps, fixed, mode), component_sets(ps), fixed,
                    mode)
        assert admissible_assignments(ps, mode="count").count == 2
        assert admissible_assignments(ps, fixed={"I": 0}).status == "UNSAT"

    @pytest.mark.parametrize("case", ["empty", "one ray", "identity",
                                      "interleaved", "split", "connected"])
    def test_all_witnesses_are_plain_dicts_in_decision_order(self, case):
        ps = {"empty": lambda: ProjectorSet(2, {}),
              "one ray": lambda: ProjectorSet(3, {
                  "a": projector_from_span([(1, 2, 3)])}),
              "identity": lambda: ProjectorSet(2, {
                  "I": projector_from_span([(1, 0), (0, 1)])}),
              "interleaved": interleaved_pairs,
              "split": lambda: random_split_corpus(Random(12), 3),
              "connected": single_context_corpus}[case]()
        labels = list(whole_network(ps).labels)
        result = admissible_assignments(ps, mode="all")
        assert len(result.witnesses) == result.count > 0
        for w in result.witnesses:
            assert type(w.values) is dict
            assert list(w.values) == labels
        assert len(set(result.witnesses)) == result.count
        if not labels:      # the empty assignment is the one witness
            assert result.witnesses == (Assignment({}),)
            assert result.witness == Assignment({})

    @pytest.mark.parametrize("mode", ["first", "all", "count"])
    def test_empty_set_has_the_empty_witness(self, mode):
        result = admissible_assignments(ProjectorSet(2, {}), mode=mode)
        assert (result.status, result.nodes_explored) == ("SAT", 1)
        assert result.witness == Assignment({})
        assert type(result.witness.values) is dict
        assert result.count == (None if mode == "first" else 1)
        assert result.witnesses == ((Assignment({}),) if mode == "all" else None)

    def test_pins_spread_across_components(self):
        ps = interleaved_pairs()
        parts = component_sets(ps)
        for fixed in ({"p1": 0, "p2": 1}, {"p4": 1, "p3": 1},
                      {"p1": 1, "p4": 1, "p2": 0}, {"p3": 0, "p4": 0}):
            for mode in ("first", "all", "count"):
                assert_component_result(
                    admissible_assignments(ps, mode=mode, fixed=fixed),
                    monolithic(ps, fixed, mode), parts, fixed, mode)
        ps = cabello18_beside(GENERIC_TRIAD)
        for fixed in ({"T2": 1, "P1_1": 1}, {"T1": 1, "T3": 1}):
            for mode in ("first", "all", "count"):
                assert_component_result(
                    admissible_assignments(ps, mode=mode, fixed=fixed),
                    monolithic(ps, fixed, mode), component_sets(ps), fixed,
                    mode)

    def test_sat_names_no_conflict_of_either_component(self):
        # both copies meet conflicts, in an order that depends on how the
        # search splits the set; the SAT result names neither
        assert all(sum(a * b for a, b in zip(u, v)) == (1025 ** 2 if u is v else 0)
                   for u in ROTATION for v in ROTATION)
        c18 = builtin("cabello-18")
        rays = {l: p.range_basis[0] for l, p in c18.projectors.items()}
        ps = ProjectorSet(4, {
            **{l: projector_from_span([r]) for l, r in rays.items()
               if l != "P1_3"},
            **{"Q" + l: projector_from_span(
                [[sum(a * b for a, b in zip(row, r)) for row in ROTATION]])
               for l, r in rays.items() if l != "P4_4"}})
        parts = component_sets(ps)
        assert len(parts) == 2
        net = whole_network(ps)
        for comp in _parts(net.adj, full_mask(net)):
            acc = search._search_task(net, search._seed(net, comp, {}), "all",
                                      (full_mask(net) & ~comp, 0))
            assert acc.count and acc.last_conflict is not None
        for mode in ("first", "all", "count"):
            got = admissible_assignments(ps, mode=mode)
            assert_component_result(got, monolithic(ps, {}, mode), parts, {},
                                    mode)
            assert got.status == "SAT"
            assert (got.violated_context, got.violated_members) == (None, None)

    def test_localize_with_a_sat_component_before_an_unsat_one(self):
        # the rotated copy minus one ray is SAT and its labels sort before
        # "P", so at equal context degree it comes first in decision order;
        # the witness it yields must not survive the UNSAT cabello-18
        c18 = builtin("cabello-18")
        rays = {l: p.range_basis[0] for l, p in c18.projectors.items()}
        ps = ProjectorSet(4, {
            **{l: projector_from_span([r]) for l, r in rays.items()},
            **{"A" + l: projector_from_span(
                [[sum(a * b for a, b in zip(row, r)) for row in ROTATION]])
               for l, r in rays.items() if l != "P4_4"}})
        parts = component_sets(ps)
        assert [net.labels[0][0] for _, net in parts] == ["A", "P"]
        assert [admissible_assignments(sub).status for sub, _ in parts] == \
            ["SAT", "UNSAT"]
        for fixed in ({}, {"AP1_1": 1}, {"AP1_1": 0}):
            verdicts = localized_indefiniteness_certificate(ps, fixed)
            assert set(verdicts.values()) == {PinVerdict.BOTH_CONTRADICT}
            assert list(verdicts.items()) == \
                list(plain_certificate(ps, fixed).items())

    def test_localize_searches_one_component_per_pin(self, monkeypatch):
        # every propagation starts from a state in which each variable
        # outside the component of the one it assigns is assigned 0, and
        # changes no variable there
        untouched = []
        original = search._assign

        def spy(net, assigned, ones, var, val):
            found = original(net, assigned, ones, var, val)
            full = full_mask(net)
            comp = next(c for c in _parts(net.adj, full) if c >> var & 1)
            _, after, after_ones = found
            untouched.append(assigned & ~comp == full & ~comp
                             and not (ones | after_ones) & ~comp
                             and not (after ^ assigned) & ~comp)
            return found

        monkeypatch.setattr(search, "_assign", spy)
        rng = Random(4242)
        corpora = 0
        while corpora < 40:
            ps = random_split_corpus(rng, rng.randint(2, 4), max_rays=5)
            if len(component_sets(ps)) < 2:
                continue
            corpora += 1
            first = sorted(ps.projectors)[0]
            for fixed in ({}, {first: 1}, {first: 0}):
                untouched.clear()
                try:
                    verdicts = localized_indefiniteness_certificate(ps, fixed)
                except InconsistentAssignmentError:
                    continue
                assert untouched and all(untouched)
                assert list(verdicts.items()) == \
                    list(plain_certificate(ps, fixed).items())

    def test_one_network_per_call(self, monkeypatch):
        ps = disjoint_triads(12, seed=5)
        assert len(components(ps)) == 12
        calls = []
        original = OrthogonalityGraph.adjacency
        monkeypatch.setattr(OrthogonalityGraph, "adjacency",
                            lambda graph, order: calls.append(order)
                            or original(graph, order))
        for mode in ("first", "all", "count"):
            calls.clear()
            assert admissible_assignments(ps, mode=mode).status == "SAT"
            assert len(calls) == 1, mode
        for fixed in ({}, {"t00": 1}):
            calls.clear()
            localized_indefiniteness_certificate(ps, fixed)
            assert len(calls) == 1, fixed
