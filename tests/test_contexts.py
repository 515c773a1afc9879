"""Context validity, maximality, and discovery against a subset-enumeration oracle."""

import itertools
import sys
import tracemalloc
from fractions import Fraction
from random import Random

import pytest

from kscontext import (Context, Matrix, Projector, ProjectorSet,
                       UnknownLabelError, builtin, complement, contains,
                       find_maximal_contexts, is_maximal, orthogonality_graph,
                       parse, projector_from_span, to_projector_set,
                       validate_context)
from kscontext import contexts
from kscontext.cli import main
from kscontext.search import (PinVerdict, admissible_assignments,
                              check_assignment,
                              localized_indefiniteness_certificate)

from _gen import (brute_maximal_contexts, brute_orthogonal_pairs, d_roots,
                  peres24, random_orthogonal_basis, random_pset_text,
                  random_ray_corpus, random_split_corpus, random_vector,
                  recursive_maximal_contexts)


@pytest.fixture(scope="module")
def c1c6():
    return builtin("cabello-c1c6")


@pytest.fixture(scope="module")
def cabello18():
    return builtin("cabello-18")


class TestValidateContext:
    def test_declared_contexts_valid_and_maximal(self, c1c6):
        for ctx in c1c6.contexts:
            report = validate_context(c1c6, ctx.members)
            assert report.valid and report.maximal

    def test_non_orthogonal_pair_reported(self, c1c6):
        report = validate_context(c1c6, ["P1_1", "P6_3"])
        assert not report.valid
        assert report.non_orthogonal_pairs == (("P1_1", "P6_3"),)
        assert not report.maximal

    def test_projector_with_complement_is_maximal(self, c1c6):
        p = c1c6["P6_1"]
        ps = ProjectorSet(4, {"p": p, "q": complement(p)})
        report = validate_context(ps, ["p", "q"])
        assert report.valid and report.maximal

    def test_unknown_label(self, c1c6):
        with pytest.raises(UnknownLabelError):
            validate_context(c1c6, ["P1_1", "nope"])


class TestIsMaximal:
    def test_full_context(self, c1c6):
        assert is_maximal(c1c6, c1c6.context_named("C6"))

    def test_partial_context(self, c1c6):
        assert not is_maximal(c1c6, ["P1_1", "P1_2"])

    def test_two_rays_span_plane(self):
        ps = ProjectorSet(2, {
            "a": projector_from_span([(1, 0)], "a"),
            "b": projector_from_span([(0, 1)], "b"),
        })
        assert is_maximal(ps, ["a", "b"])


class TestFindMaximalContexts:
    def test_both_printed_contexts_found(self, c1c6):
        found = find_maximal_contexts(c1c6)
        assert [c.label for c in found] == ["C1", "C6"]
        assert all(c.maximal for c in found)

    def test_full_corpus_has_nine(self, cabello18):
        found = find_maximal_contexts(cabello18)
        assert len(found) == 9
        assert sorted(c.label for c in found) == [f"C{i}" for i in range(1, 10)]

    def test_every_projector_in_exactly_two(self, cabello18):
        counts = {l: 0 for l in cabello18.projectors}
        for ctx in find_maximal_contexts(cabello18):
            for m in ctx.members:
                counts[m] += 1
        assert all(n == 2 for n in counts.values())

    def test_single_projector_has_none(self):
        ps = ProjectorSet(4, {"p": projector_from_span([(0, 0, 0, 1)], "p")})
        assert find_maximal_contexts(ps) == ()

    def test_discovered_pass_validation(self, cabello18):
        for ctx in find_maximal_contexts(cabello18):
            report = validate_context(cabello18, ctx.members)
            assert report.valid and report.maximal

    def test_rank_one_context_has_dimension_members(self, cabello18):
        for ctx in find_maximal_contexts(cabello18):
            assert len(ctx.members) == cabello18.dimension

    def test_member_ranges_inside_partner_kernels(self, c1c6):
        # orthogonality puts each member's range inside every other
        # member's kernel; the reverse containment does not hold
        for ctx in c1c6.contexts:
            for i in ctx.members:
                for k in ctx.members:
                    if i != k:
                        assert contains(c1c6[i].kernel, c1c6[k].range)
                        assert not contains(c1c6[k].range, c1c6[i].kernel)

    def test_matches_subset_enumeration_oracle(self):
        rng = Random(77001)
        for _ in range(20):
            ps = random_ray_corpus(rng, rng.randint(2, 4), max_rays=9)
            found = {frozenset(c.members) for c in find_maximal_contexts(ps)}
            assert found == brute_maximal_contexts(ps)

    def test_independent_of_input_order(self):
        rng = Random(55)
        ps = random_ray_corpus(rng, 3, max_rays=8)
        items = list(ps.projectors.items())
        rng.shuffle(items)
        shuffled = ProjectorSet(ps.dimension, dict(items))
        a = {frozenset(c.members) for c in find_maximal_contexts(ps)}
        b = {frozenset(c.members) for c in find_maximal_contexts(shuffled)}
        assert a == b


class TestIterativeCliques:
    """Bron-Kerbosch on an explicit stack against its recursive form."""

    def corpora(self):
        yield builtin("cabello-c1c6")
        yield builtin("cabello-18")
        yield peres24()
        yield d_roots(8)
        rng = Random(60606)
        for _ in range(30):
            yield random_ray_corpus(rng, rng.randint(2, 4), max_rays=10)
        for _ in range(30):
            yield to_projector_set(parse(random_pset_text(rng)))

    def test_same_contexts_as_recursive_form(self):
        sizes = []
        for ps in self.corpora():
            found = find_maximal_contexts(ps)
            # Context equality covers label, member order and maximality
            assert found == recursive_maximal_contexts(ps)
            sizes.append(len(found))
        assert sizes[:4] == [2, 9, 24, 105]

    def test_pivot_is_the_first_vertex_with_most_candidate_neighbours(self):
        rng = Random(90210)
        early = 0
        for _ in range(400):
            n = rng.randint(1, 9)
            adj = [0] * n
            density = rng.random()
            for a, b in itertools.combinations(range(n), 2):
                if rng.random() < density:
                    adj[a] |= 1 << b
                    adj[b] |= 1 << a
            pool = rng.sample(range(n), rng.randint(1, n))
            cut = rng.randint(0, len(pool))
            candidates = sum(1 << v for v in pool[:cut])
            excluded = sum(1 << v for v in pool[cut:])

            def score(v):
                return bin(adj[v] & candidates).count("1")
            # max keeps the first of equal scores: set order is bit order
            want = max(sorted(pool), key=score)
            assert contexts._pivot(adj, candidates, excluded) == want
            early += score(want) >= bin(candidates).count("1") - 1
        assert early > 50

    def test_clique_deeper_than_the_recursion_limit(self):
        # the zero projector is orthogonal to every projector, so 1100 of
        # them form one clique of 1100; its ranks sum to 0, not a context
        n = 1100
        assert n > sys.getrecursionlimit()
        ps = ProjectorSet(2, {f"z{k:04d}": projector_from_span([(0, 0)])
                              for k in range(n)})
        assert find_maximal_contexts(ps) == ()
        result = admissible_assignments(ps, mode="first")
        assert result.status == "SAT"
        assert set(result.witness.values.values()) == {0}


class TestOneGraph:
    """The orthogonality relation is computed once, held as bitsets and
    read by every layer through `orthogonality_graph`."""

    def test_edges_are_the_matrix_product_pairs(self):
        rng = Random(31337)
        corpora = [random_ray_corpus(rng, rng.randint(2, 4), max_rays=10)
                   for _ in range(20)]
        corpora += [to_projector_set(parse(random_pset_text(rng)))
                    for _ in range(20)]
        for ps in corpora:
            graph = orthogonality_graph(ps)
            assert list(graph) == list(ps.projectors)
            assert {frozenset((a, b)) for a in graph for b in graph[a]} == \
                brute_orthogonal_pairs(ps)
        label = next(iter(graph))
        with pytest.raises(TypeError):
            graph[label] = frozenset()
        with pytest.raises(KeyError):
            graph["no-such-label"]
        assert label in graph and "no-such-label" not in graph

    def test_every_query_shares_one_test_per_pair(self, monkeypatch):
        ps = random_split_corpus(Random(12), 3)
        graph = orthogonality_graph(ps)
        assert len(contexts._parts(graph.bits, (1 << len(graph)) - 1)) > 1
        ps = ProjectorSet(ps.dimension, dict(ps.projectors), ps.contexts)
        tested = []
        original = contexts.is_orthogonal
        monkeypatch.setattr(contexts, "is_orthogonal",
                            lambda p, q: tested.append((p.label, q.label))
                            or original(p, q))
        find_maximal_contexts(ps)
        for mode in ("first", "all", "count"):
            admissible_assignments(ps, mode=mode)
        first = next(iter(ps.projectors))
        localized_indefiniteness_certificate(ps, {first: 1})
        check_assignment(ps, {first: 1})
        n = len(ps)
        assert len(tested) == len(set(map(frozenset, tested))) == n * (n - 1) // 2

    def test_a_dense_clique_is_held_as_bitsets(self):
        # 400 zero projectors: every pair orthogonal, one clique of 400;
        # neither the graph nor a search network holds a pair one by one
        ps = ProjectorSet(2, {f"z{k:03d}": projector_from_span([(0, 0)])
                              for k in range(400)})
        first = next(iter(ps.projectors))
        zeros = dict.fromkeys(ps.projectors, 0)
        calls = {
            "cliques": lambda: find_maximal_contexts(ps) == (),
            "first": lambda: admissible_assignments(ps).witness.values == zeros,
            "all": lambda: admissible_assignments(ps, mode="all").count == 1,
            "count": lambda: admissible_assignments(ps, mode="count").count == 1,
            "check": lambda: check_assignment(ps, zeros) == [],
            "localize": lambda: set(localized_indefiniteness_certificate(
                ps, {first: 0}).values()) == {PinVerdict.FORCED_ZERO},
        }
        peaks = {}
        tracemalloc.start()
        try:
            for name, call in calls.items():
                tracemalloc.reset_peak()
                assert call(), name
                peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(peaks.values()) < 2 * 2 ** 20, peaks


class TestIsMaximalOracle:
    """Rank-sum maximality against the exact Fraction matrix sum."""

    @staticmethod
    def sums_to_identity(ps, members):
        total = Matrix.zero(ps.dimension)
        for m in members:
            total = total + ps[m].matrix
        return bool(members) and total == Matrix.identity(ps.dimension)

    def test_agrees_with_matrix_sum_on_seeded_corpora(self):
        rng = Random(271828)
        outcomes = set()
        for _ in range(40):
            d = rng.randint(1, 5)
            basis = random_orthogonal_basis(rng, d)
            pool = {"zero": Projector.zero(d), "one": Projector.identity(d)}
            for i, v in enumerate(basis):
                pool[f"b{i}"] = projector_from_span([v])
            cut = rng.randint(1, d)     # a higher-rank span and its partner
            pool["lo"] = projector_from_span(basis[:cut])
            pool["hi"] = complement(pool["lo"])
            for i in range(3):
                pool[f"s{i}"] = projector_from_span(
                    [random_vector(rng, d) for _ in range(rng.randint(1, d))])
            ps = ProjectorSet(d, pool)
            labels = list(pool)
            families = [[f"b{i}" for i in range(d)], ["lo", "hi"],
                        ["lo", "hi", "zero"], ["one"], ["one", "zero"],
                        ["one", "one"], ["lo", "lo", "hi"], []]
            families += [rng.choices(labels, k=rng.randint(1, 5))
                         for _ in range(30)]
            for members in families:
                want = self.sums_to_identity(ps, members)
                assert is_maximal(ps, members) is want
                outcomes.add((want, len(set(members)) < len(members)))
        assert outcomes == {(True, False), (False, False), (True, True),
                            (False, True)}


def e8_rays() -> list[tuple[Fraction, ...]]:
    """The 240 E8 roots taken up to sign: the first nonzero entry positive."""
    half = Fraction(1, 2)
    roots = []
    for i, j in itertools.combinations(range(8), 2):
        for si, sj in itertools.product((1, -1), repeat=2):
            root = [Fraction(0)] * 8
            root[i], root[j] = Fraction(si), Fraction(sj)
            roots.append(tuple(root))
    for signs in itertools.product((1, -1), repeat=8):
        if signs.count(-1) % 2 == 0:
            roots.append(tuple(s * half for s in signs))
    assert len(roots) == 240
    return [r for r in roots if next(x for x in r if x) > 0]


class TestE8Scale:
    """The 120 E8 rays of Kernaghan and Peres (Phys. Lett. A 198 (1995) 1)."""

    def test_graph_contexts_and_unsat(self, tmp_path, capsys):
        rays = e8_rays()
        assert len(rays) == 120
        text = "dim 8\n" + "".join(
            f"vec e{i:03d} = {' '.join(map(str, r))}\n" for i, r in enumerate(rays))
        ps = to_projector_set(parse(text))
        graph = orthogonality_graph(ps)
        # the generating rays, doubled to integers, give the oracle
        ints = [tuple(int(2 * x) for x in r) for r in rays]
        labels = list(ps.projectors)
        for (a, u), (b, v) in itertools.combinations(zip(labels, ints), 2):
            assert (b in graph[a]) == (sum(x * y for x, y in zip(u, v)) == 0)
        assert sum(map(len, graph.values())) // 2 == 3780
        contexts = find_maximal_contexts(ps)
        assert len(contexts) == 2025
        assert all(len(c.members) == 8 for c in contexts)

        path = tmp_path / "e8.pset"
        path.write_text(text)
        assert main(["color", str(path), "--mode", "first",
                     "--require-sat"]) == 3
        assert "status: UNSAT" in capsys.readouterr().out


class TestProjectorSetConstruction:
    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            ProjectorSet(4, {
                "a": projector_from_span([(0, 0, 0, 1)]),
                "b": projector_from_span([(1, 0)]),
            })

    def test_context_with_unknown_member_rejected(self):
        with pytest.raises(UnknownLabelError):
            ProjectorSet(4, {"a": projector_from_span([(0, 0, 0, 1)])},
                         [Context(("a", "zzz"), maximal=False, label="C")])

    def test_single_member_context_rejected(self):
        with pytest.raises(ValueError):
            ProjectorSet(4, {"a": projector_from_span([(0, 0, 0, 1)])},
                         [Context(("a",), maximal=False, label="C")])

    def test_context_naming_a_member_twice_rejected(self):
        rays = {"a": (1, 0, 0), "b": (0, 1, 0), "c": (0, 0, 1)}
        projectors = {l: projector_from_span([r]) for l, r in rays.items()}
        for ctx in (Context(("a", "b", "b", "c"), maximal=False, label="C"),
                    ("C", ("a", "b", "b", "c")), ("C", ("b", "b"))):
            with pytest.raises(ValueError, match="C names 'b' twice"):
                ProjectorSet(3, projectors, [ctx])

    def test_declared_maximality_recomputed(self, c1c6):
        ps = ProjectorSet(4, dict(c1c6.projectors),
                          [("half", ("P1_1", "P1_2"))])
        assert ps.contexts[0].maximal is False
        ps2 = ProjectorSet(4, dict(c1c6.projectors),
                           [("full", ("P1_1", "P1_2", "P1_3", "P1_4"))])
        assert ps2.contexts[0].maximal is True

    def test_set_is_immutable(self, c1c6):
        with pytest.raises(TypeError):
            c1c6.projectors["x"] = c1c6["P1_1"]
        for name in ("dimension", "projectors", "contexts"):
            with pytest.raises(AttributeError):
                setattr(c1c6, name, getattr(c1c6, name))
        graph = orthogonality_graph(c1c6)
        with pytest.raises(TypeError):
            graph["P1_1"] = frozenset()

    def test_graph_and_contexts_computed_once(self, c1c6):
        ps = ProjectorSet(4, dict(c1c6.projectors), c1c6.contexts)
        assert orthogonality_graph(ps) is orthogonality_graph(ps)
        assert find_maximal_contexts(ps) is find_maximal_contexts(ps)
        assert find_maximal_contexts(ps) == find_maximal_contexts(c1c6)

    def test_projector_relabeled_to_key(self):
        p = projector_from_span([(0, 0, 0, 1)], "other")
        ps = ProjectorSet(4, {"mine": p})
        assert ps["mine"].label == "mine"
