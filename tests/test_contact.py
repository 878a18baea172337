import numpy as np
import pytest

from contactplan.contact import active_edges, edge_gap, edge_gap_gradients
from contactplan.kinematics import forward_kinematics

RADIUS = 0.04


def arm_points(theta, base=(0.2, 0.0)):
    """Joint points of one arm."""
    return forward_kinematics(np.array(base, dtype=float),
                              np.array([0.3, 0.3, 0.3, 0.2]),
                              np.array(theta, dtype=float))


def evaluate(arm, edge, link_index=1):
    """An edge point's gap result against one arm's contact link."""
    return edge_gap(arm, link_index, RADIUS, np.array(edge, dtype=float))


class TestEvaluateGaps:
    def test_far_point_large_positive_gap(self):
        state = evaluate(arm_points([0.0] * 4), [0.5, 2.0])
        assert state.gap > 1.0

    def test_point_on_surface_gives_zero_gap(self):
        # Link 1 of the straight arm spans x in [0.5, 0.8] at y = 0.
        state = evaluate(arm_points([0.0] * 4), [0.6, 0.04])
        assert state.gap == pytest.approx(0.0, abs=1e-12)
        # The closest point on the link axis sits one radius below the edge.
        np.testing.assert_allclose(state.separation, [0.0, -0.04], atol=1e-12)
        assert state.distance == pytest.approx(0.04, abs=1e-12)

    def test_matches_dense_sampling(self, rng):
        params = np.linspace(0.0, 1.0, 1_000_001)
        for _ in range(5):
            points = arm_points(rng.normal(scale=1.0, size=4))
            edge = rng.uniform(-0.5, 1.0, size=2)
            state = evaluate(points, edge)
            a, b = points[1], points[2]
            samples = a[None, :] + params[:, None] * (b - a)[None, :]
            dense = np.min(np.linalg.norm(samples - edge, axis=1)) - 0.04
            assert abs(state.gap - dense) <= 1e-6

    def test_normal_continuity_away_from_endpoints(self, rng):
        theta = np.array([0.4, -0.2, 0.3, 0.1])
        edge = np.array([0.45, 0.35])
        base = evaluate(arm_points(theta), edge)
        assert 0.05 < base.axis_param < 0.95  # interior closest point
        for _ in range(20):
            eps = rng.normal(scale=1e-5, size=4)
            moved = evaluate(arm_points(theta + eps), edge)
            assert abs(moved.normal_angle - base.normal_angle) < 1e-2

    def test_gradients_match_finite_differences(self, rng):
        # Interior and end-point closest points alike.
        for _ in range(20):
            theta = rng.normal(scale=1.0, size=4)
            edge = rng.uniform(-0.5, 1.0, size=2)

            def values(q):
                res = evaluate(arm_points(q), edge)
                return np.array([res.gap, res.normal_angle])

            step = 1e-7
            numeric = np.array([
                (values(theta + step * e) - values(theta - step * e)) / (2 * step)
                for e in np.eye(4)]).T
            points = arm_points(theta)
            analytic = edge_gap_gradients(points, 1, edge, evaluate(points, edge))
            np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-5)


class TestSelection:
    def test_picks_smaller_gap(self):
        points = (arm_points([np.pi / 4, 0, 0, 0]),)
        a, b = points[0][1], points[0][2]
        near = a + 0.4 * (b - a) + np.array([0.0, 0.05])
        far = near + np.array([0.0, 0.5])
        active = active_edges(points, 1, RADIUS, [[far, near]])
        assert active.shape == (1, 2)
        np.testing.assert_allclose(active[0], near)

    def test_tie_breaks_toward_smaller_x(self):
        points = (arm_points([0.0] * 4),)
        # Equidistant points above and below the straight link: equal gaps,
        # so the smaller x-coordinate wins.
        a = np.array([0.6, 0.1])
        b = np.array([0.59, -0.1])
        active = active_edges(points, 1, RADIUS, [[a, b]])
        np.testing.assert_allclose(active[0], b)

