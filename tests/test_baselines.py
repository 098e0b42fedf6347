"""Tests for the baseline mechanisms (Fig. 1 comparison set)."""

import math

import numpy as np
import pytest

from repro.baselines import (
    BaselineResult,
    GlobalSensitivityLaplace,
    KarwaKStarMechanism,
    KarwaKTriangleMechanism,
    NRSTriangleMechanism,
    RHMSMechanism,
    SmoothSensitivity,
    cauchy_noise_release,
    laplace_mechanism,
    laplace_noise_release,
    triangle_local_sensitivity_at_distance,
)
from repro.errors import MechanismError, PrivacyParameterError
from repro.graphs import Graph, erdos_renyi, random_graph_with_avg_degree
from repro.subgraphs import count_triangles, k_star, triangle
from repro.subgraphs.counting import count_k_triangles


@pytest.fixture
def medium_graph():
    return random_graph_with_avg_degree(120, 10, rng=9)


class TestLaplaceMechanism:
    def test_unbiased(self):
        rng = np.random.default_rng(0)
        answers = [laplace_mechanism(100.0, 1.0, 1.0, rng).answer for _ in range(500)]
        assert abs(np.median(answers) - 100.0) < 1.0

    def test_noise_scale(self):
        result = laplace_mechanism(0.0, 4.0, 0.5, rng=0)
        assert result.noise_scale == pytest.approx(8.0)

    def test_unbounded_sensitivity_raises(self):
        mech = GlobalSensitivityLaplace(math.inf)
        with pytest.raises(MechanismError):
            mech.run(10.0, 1.0)

    def test_invalid_params(self):
        with pytest.raises(PrivacyParameterError):
            GlobalSensitivityLaplace(-1.0)
        with pytest.raises(PrivacyParameterError):
            laplace_mechanism(0.0, 1.0, 0.0)

    def test_result_error_fields(self):
        result = BaselineResult(
            answer=12.0, true_answer=10.0, noise_scale=1.0, mechanism="x"
        )
        assert result.absolute_error == pytest.approx(2.0)
        assert result.relative_error == pytest.approx(0.2)


class TestSmoothSensitivity:
    def test_constant_ls(self):
        smooth = SmoothSensitivity(lambda s: 5.0, ls_cap=5.0)
        assert smooth.value(0.1) == pytest.approx(5.0)

    def test_growing_ls_maximized_in_interior(self):
        # LS^(s) = min(s, 10): max_s e^{-βs}·min(s,10) at β=0.5 occurs at s=2
        smooth = SmoothSensitivity(lambda s: float(min(s, 10)), ls_cap=10.0)
        values = [math.exp(-0.5 * s) * min(s, 10) for s in range(30)]
        assert smooth.value(0.5) == pytest.approx(max(values))

    def test_invalid_beta(self):
        smooth = SmoothSensitivity(lambda s: 1.0, ls_cap=1.0)
        with pytest.raises(PrivacyParameterError):
            smooth.value(0.0)

    def test_cauchy_release_centers_on_truth(self):
        smooth = SmoothSensitivity(lambda s: 1.0, ls_cap=1.0)
        rng = np.random.default_rng(1)
        answers = [
            cauchy_noise_release(50.0, smooth, 1.0, rng).answer for _ in range(400)
        ]
        assert abs(np.median(answers) - 50.0) < 3.0

    def test_laplace_release_validates(self):
        smooth = SmoothSensitivity(lambda s: 1.0, ls_cap=1.0)
        with pytest.raises(PrivacyParameterError):
            laplace_noise_release(0.0, smooth, 1.0, delta=0.0)
        result = laplace_noise_release(0.0, smooth, 1.0, delta=0.1, rng=0)
        assert result.delta == 0.1


class TestNRSTriangles:
    def test_ls_at_distance_zero_is_max_common_neighbors(self):
        g = Graph(edges=[(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
        # pair (0,1) has common neighbors {2,3}
        assert triangle_local_sensitivity_at_distance(g, 0) == 2

    def test_ls_monotone_in_distance(self, medium_graph):
        values = [
            triangle_local_sensitivity_at_distance(medium_graph, s)
            for s in range(0, 20, 4)
        ]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_ls_capped_at_n_minus_2(self):
        g = Graph(edges=[(0, 1), (1, 2), (2, 3)])
        assert triangle_local_sensitivity_at_distance(g, 1000) == g.num_nodes - 2

    def test_candidate_pairs_match_exact_on_small_graphs(self):
        for seed in range(5):
            g = erdos_renyi(16, 0.3, rng=seed)
            for s in (0, 1, 3, 7):
                approx = triangle_local_sensitivity_at_distance(g, s)
                exact = triangle_local_sensitivity_at_distance(g, s, exact_pairs=True)
                assert approx == exact, (seed, s)

    def test_run_centers_on_truth(self, medium_graph):
        mech = NRSTriangleMechanism(medium_graph)
        rng = np.random.default_rng(2)
        answers = [mech.run(2.0, rng).answer for _ in range(200)]
        truth = count_triangles(medium_graph)
        assert abs(np.median(answers) - truth) / truth < 0.5

    def test_answers_byte_identical_at_fixed_seed(self, medium_graph):
        # released by the pre-vectorization per-pair scan at this seed;
        # the cached, vectorized smooth bound must reproduce every bit
        mech = NRSTriangleMechanism(medium_graph)
        rng = np.random.default_rng(2)
        answers = [mech.run(eps, rng).answer.hex() for eps in (0.5, 1.0, 2.0, 1.0)]
        assert answers == [
            "0x1.d3c12e1c9bcfdp+6",
            "0x1.2e4fb566f8856p+7",
            "0x1.5330333ac177ap+7",
            "0x1.0a5e7641586d4p+7",
        ]

    def test_empty_graph(self):
        mech = NRSTriangleMechanism(Graph(nodes=[0, 1]))
        result = mech.run(1.0, rng=0)
        assert result.true_answer == 0.0


class TestKarwaKStar:
    def test_ls_at_distance(self, medium_graph):
        mech = KarwaKStarMechanism(medium_graph, 2)
        degrees = sorted(medium_graph.degrees().values(), reverse=True)
        assert mech._ls_at_distance(0) == pytest.approx(
            math.comb(degrees[0], 1) + math.comb(degrees[1], 1)
        )

    def test_accuracy_much_better_than_global(self, medium_graph):
        """2-star counting with smooth sensitivity is tight (Fig. 4)."""
        mech = KarwaKStarMechanism(medium_graph, 2)
        rng = np.random.default_rng(3)
        errors = [mech.run(0.5, rng).relative_error for _ in range(51)]
        assert float(np.median(errors)) < 0.2

    def test_invalid_k(self, medium_graph):
        from repro.errors import PatternError

        with pytest.raises(PatternError):
            KarwaKStarMechanism(medium_graph, 0)


class TestKarwaKTriangle:
    def test_runs_and_reports_a_max(self, medium_graph):
        mech = KarwaKTriangleMechanism(medium_graph, 2)
        result = mech.run(0.5, 0.1, rng=0)
        assert result.true_answer == count_k_triangles(medium_graph, 2)
        assert result.diagnostics["a_max"] == medium_graph.max_common_neighbors()
        assert result.delta == 0.1

    def test_smaller_delta_means_more_noise(self, medium_graph):
        mech = KarwaKTriangleMechanism(medium_graph, 2)
        loose = mech.run(0.5, 0.1, rng=1).noise_scale
        tight = mech.run(0.5, 1e-9, rng=1).noise_scale
        assert tight > loose

    def test_invalid_params(self, medium_graph):
        mech = KarwaKTriangleMechanism(medium_graph, 2)
        with pytest.raises(PrivacyParameterError):
            mech.run(0.0, 0.1)
        with pytest.raises(PrivacyParameterError):
            mech.run(0.5, 0.0)


class TestRHMS:
    def test_noise_scale_formula(self):
        g = Graph(edges=[(0, 1)], nodes=range(100))
        mech = RHMSMechanism(g, triangle(), true_answer=10.0)
        k, num_edges = 3, 3
        expected = (k * num_edges**2 * math.log(100)) ** (num_edges - 1) / 0.5
        assert mech.noise_scale(0.5) == pytest.approx(expected)

    def test_error_explodes_with_subgraph_edges(self, medium_graph):
        """The paper's point: RHMS noise grows exponentially with l."""
        star = RHMSMechanism(medium_graph, k_star(2), 100.0)
        tri = RHMSMechanism(medium_graph, triangle(), 100.0)
        assert tri.noise_scale(0.5) > 50 * star.noise_scale(0.5)

    def test_run(self, medium_graph):
        mech = RHMSMechanism(medium_graph, triangle(), 50.0)
        result = mech.run(0.5, rng=0)
        assert result.privacy == "adversarial-edge"
        assert math.isfinite(result.answer)

    def test_invalid_epsilon(self, medium_graph):
        mech = RHMSMechanism(medium_graph, triangle(), 50.0)
        with pytest.raises(PrivacyParameterError):
            mech.run(0.0)
