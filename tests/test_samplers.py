import math
from collections import Counter

import numpy as np
import pytest

from degree_lab.bins import throw_balls
from degree_lab.forests import forest_count
from degree_lab.graphs import (GraphError, LabeledGraph, MultiGraph, core_of,
                               has_complex_component, split)
from degree_lab.samplers import (PipelineSpec, SamplingCapExceeded,
                                 enumerate_gnm, exact_census_gnm,
                                 sample_complex, sample_complex_degrees,
                                 sample_cs, sample_cs_counted, sample_gnm,
                                 sample_gnm_counted, sample_multigraph,
                                 sample_pipeline, validate_core_graph)

K4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def theta_graph():
    """Two hubs joined by three paths: 1-2, 1-3-2, 1-4-2 (K4 less an edge)."""
    return LabeledGraph(4, [(1, 2), (1, 3), (3, 2), (1, 4), (4, 2)])


def shifted(edges, d):
    return [(u + d, v + d) for u, v in edges]


class TestMultigraph:
    def test_degrees_match_ball_loads(self):
        # one edge consumes two throws, so the degree sequence is the
        # load vector of 2m balls from the same stream
        for seed in range(5):
            g = sample_multigraph(100, 70, rng=seed)
            assert np.array_equal(g.degree_sequence(),
                                  throw_balls(100, 140, rng=seed))

    def test_single_edge_loop_rate(self):
        # on two vertices the lone edge is a loop half the time
        rng = np.random.default_rng(3)
        loops = sum(not sample_multigraph(2, 1, rng).is_simple()
                    for _ in range(4000))
        assert abs(loops / 4000 - 0.5) < 0.04

    def test_edge_count(self):
        g = sample_multigraph(10, 25, rng=1)
        assert g.num_edges == 25
        assert g.degree_sequence().sum() == 50


class TestGnm:
    def test_full_graph_is_forced(self):
        g = sample_gnm(3, 3, rng=0)
        assert g.edge_set() == {(1, 2), (1, 3), (2, 3)}

    def test_empty_graph_needs_one_attempt(self):
        g, attempts = sample_gnm_counted(4, 0, rng=0)
        assert attempts == 1
        assert g.num_edges == 0

    def test_rejects_infeasible_m(self):
        with pytest.raises(ValueError):
            sample_gnm(4, 7, rng=0)

    def test_deterministic(self):
        a = sample_gnm(40, 20, rng=9)
        b = sample_gnm(40, 20, rng=9)
        assert a.edge_set() == b.edge_set()

    def test_cap_zero_raises(self):
        with pytest.raises(SamplingCapExceeded):
            sample_gnm(10, 5, rng=0, max_attempts=0)

    def test_uniform_over_three_graphs(self):
        rng = np.random.default_rng(17)
        trials = 15000
        tally = Counter()
        for _ in range(trials):
            tally[frozenset(sample_gnm(3, 2, rng).edge_set())] += 1
        assert len(tally) == 3
        for count in tally.values():
            assert abs(count / trials - 1 / 3) < 0.02

    def test_simplicity_rate_at_half_density(self):
        # acceptance of the pairing model at m = n/2 sits near 0.47,
        # comfortably above the exp(-2) floor
        rng = np.random.default_rng(23)
        simple = sum(sample_multigraph(1000, 500, rng).is_simple()
                     for _ in range(400))
        assert simple / 400 > math.exp(-2)
        assert abs(simple / 400 - 0.47) < 0.10


class TestComplexFree:
    def test_rejects_m_above_n(self):
        with pytest.raises(ValueError):
            sample_cs(10, 11, rng=0)

    def test_never_contains_complex_part(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            g = sample_cs(60, 30, rng)
            assert not has_complex_component(g)

    def test_acceptance_stays_workable(self):
        rng = np.random.default_rng(29)
        attempts = sum(sample_cs_counted(2000, 1000, rng)[1]
                       for _ in range(200))
        assert 200 / attempts > 0.25

    def test_cap_zero_raises(self):
        with pytest.raises(SamplingCapExceeded):
            sample_cs(10, 5, rng=0, max_attempts=0)

    def test_uniform_over_feasible_class(self):
        admissible = [g for g in enumerate_gnm(5, 5)
                      if not has_complex_component(g)]
        assert len(admissible) == 222
        index = {g.edges.tobytes(): i for i, g in enumerate(admissible)}
        rng = np.random.default_rng(31)
        trials = 15000
        counts = [0] * len(admissible)
        draws = 0
        for _ in range(trials):
            g, att = sample_cs_counted(5, 5, rng)
            counts[index[g.edges.tobytes()]] += 1
            draws += att
        tv = 0.5 * sum(abs(c / trials - 1 / 222) for c in counts)
        assert tv < 0.10
        # acceptance should track the share of complex-free graphs
        assert abs(trials / draws - 222 / 252) < 0.05


class TestValidateCore:
    def test_accepts_k4(self):
        validate_core_graph(LabeledGraph(4, K4))

    def test_accepts_two_components(self):
        validate_core_graph(LabeledGraph(8, K4 + shifted(K4, 4)))

    def test_rejects_pendant_vertex(self):
        with pytest.raises(GraphError):
            validate_core_graph(LabeledGraph(5, K4 + [(4, 5)]))

    def test_rejects_plain_cycle(self):
        cycle = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
        with pytest.raises(GraphError):
            validate_core_graph(LabeledGraph(5, cycle))

    def test_rejects_cycle_component_next_to_k4(self):
        cycle = [(5, 6), (6, 7), (7, 5)]
        with pytest.raises(GraphError):
            validate_core_graph(LabeledGraph(7, K4 + cycle))


    @pytest.mark.parametrize("core", [
        MultiGraph(2, [(1, 2)] * 3),
        MultiGraph(1, [(1, 1), (1, 1)]),
        MultiGraph(4, K4 + [(1, 2)]),
        MultiGraph(4, K4 + [(3, 3)]),
    ])
    def test_rejects_multigraph_cores_before_any_draw(self, core):
        message = "core graph must be simple: no loop, no repeated edge"
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        for make in (lambda: validate_core_graph(core),
                     lambda: sample_complex(core, 6, rng),
                     lambda: sample_complex_degrees(core, 6, rng),
                     lambda: PipelineSpec(core, core.n, 0, 40, 30)):
            with pytest.raises(GraphError) as info:
                make()
            assert str(info.value) == message
        assert rng.bit_generator.state == state

    def test_accepts_a_simple_multigraph_core(self):
        core = MultiGraph(4, K4)
        g = sample_complex(core, 9, rng=3)
        assert g == sample_complex(LabeledGraph(4, K4), 9, rng=3)


class TestComplexSampler:
    def test_q_equal_core_returns_core(self):
        core = LabeledGraph(4, K4)
        g = sample_complex(core, 4, rng=0)
        assert g.edge_set() == core.edge_set()

    def test_rejects_q_below_core(self):
        with pytest.raises(ValueError):
            sample_complex(LabeledGraph(4, K4), 3, rng=0)

    def test_rejects_empty_core(self):
        with pytest.raises(ValueError):
            sample_complex(LabeledGraph(0, []), 5, rng=0)

    def test_core_recovery(self):
        core = LabeledGraph(4, K4)
        for seed in range(20):
            g = sample_complex(core, 30, rng=seed)
            assert core_of(g).edge_set() == core.edge_set()

    def test_degree_identity(self):
        core = theta_graph()
        g, forest = sample_complex(core, 25, rng=2, return_forest=True)
        expected = forest.degree_sequence().copy()
        expected[:4] += core.degree_sequence()
        assert np.array_equal(g.degree_sequence(), expected)

    def test_degree_stream_matches_graph(self):
        core = theta_graph()
        for seed in range(10):
            d = sample_complex_degrees(core, 40, rng=seed)
            g = sample_complex(core, 40, rng=seed)
            assert np.array_equal(d, g.degree_sequence())

    def test_conservation(self):
        core = LabeledGraph(4, K4)
        g = sample_complex(core, 50, rng=7)
        assert g.n == 50
        assert g.num_edges == core.num_edges + (50 - 4)

    def test_uniform_over_small_class(self):
        # with a 4-vertex core and q=6 the class has one graph per
        # rooted forest, 4 * 6 = 24 of them
        core = theta_graph()
        class_size = forest_count(6, 4)
        assert class_size == 24
        rng = np.random.default_rng(37)
        trials = 12000
        tally = Counter()
        for _ in range(trials):
            tally[frozenset(sample_complex(core, 6, rng).edge_set())] += 1
        assert len(tally) == class_size
        tv = 0.5 * sum(abs(c / trials - 1 / class_size)
                       for c in tally.values())
        assert tv < 0.045


class TestPipelineSpec:
    def test_spare_accounting(self):
        # worked example: K4 core grown to 100 vertices, remainder half full
        spec = PipelineSpec(LabeledGraph(4, K4), 100, 0, 10_000, 5052)
        assert spec.spare_order == 9900
        assert spec.spare_edges == 4950

    def test_rejects_large_order_below_core_component(self):
        with pytest.raises(ValueError):
            PipelineSpec(LabeledGraph(4, K4), 3, 0, 100, 50)

    def test_rejects_zero_large_order_with_core(self):
        with pytest.raises(ValueError):
            PipelineSpec(LabeledGraph(4, K4), 0, 4, 100, 50)

    def test_rejects_small_order_for_one_component_core(self):
        with pytest.raises(ValueError):
            PipelineSpec(LabeledGraph(4, K4), 10, 5, 100, 50)

    def test_rejects_overfull_spare(self):
        # spare would need more edges than vertices
        with pytest.raises(ValueError):
            PipelineSpec(LabeledGraph(4, K4), 90, 0, 100, 120)

    def test_rejects_orders_beyond_n(self):
        with pytest.raises(ValueError):
            PipelineSpec(LabeledGraph(4, K4), 101, 0, 100, 50)

    def test_rejects_invalid_core(self):
        with pytest.raises(GraphError):
            PipelineSpec(LabeledGraph(3, [(1, 2), (2, 3), (3, 1)]),
                         10, 0, 100, 50)


class TestPipeline:
    def two_part_spec(self):
        # 7-vertex theta (largest) next to a K4, grown into 100 vertices
        theta7 = [(1, 3), (3, 2), (1, 4), (4, 5), (5, 2),
                  (1, 6), (6, 7), (7, 2)]
        core = LabeledGraph(11, theta7 + shifted(K4, 7))
        return PipelineSpec(core, 30, 10, 100, 73)

    def test_conservation(self):
        spec = self.two_part_spec()
        assert spec.spare_order == 60 and spec.spare_edges == 30
        for seed in range(5):
            g = sample_pipeline(spec, rng=seed)
            assert g.n == 100
            assert g.num_edges == 73

    def test_split_recovers_part_orders(self):
        spec = self.two_part_spec()
        for seed in range(5):
            d = split(sample_pipeline(spec, rng=seed))
            assert d.large_complex.order == 30
            assert d.small_complex.order == 10
            assert d.non_complex.order == 60

    def test_core_lands_on_low_block_labels(self):
        spec = self.two_part_spec()
        g = sample_pipeline(spec, rng=11)
        theta7 = {(1, 3), (2, 3), (1, 4), (4, 5), (2, 5),
                  (1, 6), (6, 7), (2, 7)}
        expected = theta7 | {(u + 30, v + 30) for u, v in K4}
        assert core_of(g).edge_set() == expected

    def test_shuffle_preserves_shape(self):
        spec = self.two_part_spec()
        plain = sample_pipeline(spec, rng=3)
        mixed = sample_pipeline(spec, rng=3, shuffle_labels=True)
        assert mixed.n == plain.n and mixed.num_edges == plain.num_edges
        assert sorted(mixed.degree_sequence()) == sorted(
            plain.degree_sequence())
        d = split(mixed)
        assert d.large_complex.order == 30
        assert d.small_complex.order == 10

    def test_empty_core_equals_complex_free_draw(self):
        spec = PipelineSpec(LabeledGraph(0, []), 0, 0, 200, 100)
        for seed in range(5):
            g = sample_pipeline(spec, rng=seed)
            h = sample_cs(200, 100, rng=seed)
            assert np.array_equal(g.edges, h.edges)

    def test_worked_example_totals(self):
        spec = PipelineSpec(LabeledGraph(4, K4), 100, 0, 10_000, 5052)
        g = sample_pipeline(spec, rng=1)
        assert g.n == 10_000 and g.num_edges == 5052
        d = split(g)
        assert d.large_complex.order == 100
        assert d.small_complex.order == 0
        assert d.non_complex.order == 9900


class TestCensus:
    def test_three_graph_class(self):
        report = exact_census_gnm(3, 2, 15000, rng=0)
        assert report.graph_count == 3
        assert report.trials == 15000
        assert sum(report.counts) == 15000
        assert report.tv_distance < 0.02
        assert report.chi_square is not None
        assert not report.insufficient_samples

    def test_every_small_class_is_uniform(self):
        # Sweep of every class that fits in four labels.  The census
        # indexes samples by edge set, so a draw that was not simple
        # with exactly m edges would blow up the lookup.  Trials scale
        # with class size to keep the multinomial noise floor near
        # 0.025, less than half the distance bound.
        for n in range(1, 5):
            for m in range(math.comb(n, 2) + 1):
                classes = math.comb(math.comb(n, 2), m)
                trials = max(200, min(4000, 200 * classes))
                report = exact_census_gnm(n, m, trials, rng=100 * n + m)
                assert report.graph_count == classes
                assert sum(report.counts) == trials
                assert not report.insufficient_samples
                if classes == 1:
                    assert report.tv_distance == 0.0
                else:
                    assert report.tv_distance < 0.06

    def test_zero_trials_convention(self):
        report = exact_census_gnm(4, 3, 0, rng=0)
        assert report.graph_count == 20
        assert report.tv_distance == pytest.approx(1 - 1 / 20)
        assert report.chi_square is None
        assert report.insufficient_samples

    def test_undersampling_flagged(self):
        report = exact_census_gnm(4, 3, 10, rng=0)
        assert report.insufficient_samples

    def test_enumeration_is_lexicographic(self):
        graphs = enumerate_gnm(4, 3)
        assert len(graphs) == 20
        assert graphs[0].edge_set() == {(1, 2), (1, 3), (1, 4)}

    def test_enumeration_cap(self):
        with pytest.raises(ValueError):
            enumerate_gnm(30, 15)
