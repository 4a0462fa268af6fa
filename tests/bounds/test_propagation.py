"""IBP and twin-IBP soundness (unit + property tests).

Soundness is checked on the engines' ``propagate``; parity is checked
against the independent single-query kernels of ``_reference.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds import Box, get_propagator, relu_distance_interval
from repro.bounds.ranges import RangeTable
from repro.nn.affine import AffineLayer, affine_chain_forward
from tests.bounds import _reference


def random_chain(rng, depth=2, width=4, in_dim=3, out_dim=2):
    """Random ReLU affine chain for soundness fuzzing."""
    dims = [in_dim] + [width] * (depth - 1) + [out_dim]
    layers = []
    for i in range(depth):
        layers.append(
            AffineLayer(
                rng.standard_normal((dims[i + 1], dims[i])),
                0.3 * rng.standard_normal(dims[i + 1]),
                relu=i < depth - 1,
            )
        )
    return layers


def assert_boxes_equal(left, right):
    np.testing.assert_array_equal(left.lo, right.lo)
    np.testing.assert_array_equal(left.hi, right.hi)


class TestIbp:
    def test_contains_sampled_outputs(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            layers = random_chain(rng, depth=3)
            box = Box.uniform(3, -1.0, 1.0)
            out_box = get_propagator("ibp").propagate(layers, box).output
            assert_boxes_equal(out_box, _reference.propagate_box(layers, box))
            for _ in range(50):
                x = box.sample(rng)[0]
                assert out_box.contains(affine_chain_forward(layers, x), tol=1e-7)

    def test_collect_pre_activations(self):
        rng = np.random.default_rng(1)
        layers = random_chain(rng, depth=3)
        box = Box.uniform(3, -1.0, 1.0)
        bounds = get_propagator("ibp").propagate(layers, box)
        assert len(bounds.y) == 3
        assert bounds.y[-1].dim == bounds.output.dim
        _, pre = _reference.propagate_box(layers, box, collect=True)
        for got, want in zip(bounds.y, pre):
            assert_boxes_equal(got, want)

    def test_point_box_is_exact(self):
        rng = np.random.default_rng(2)
        layers = random_chain(rng)
        x = rng.standard_normal(3)
        out = get_propagator("ibp").propagate(layers, Box.point(x)).output
        assert np.allclose(out.lo, out.hi)
        assert np.allclose(out.lo, affine_chain_forward(layers, x))


class TestReluDistanceInterval:
    @given(
        st.floats(-5, 5),
        st.floats(0, 3),
        st.floats(-3, 0),
        st.floats(0, 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_pointwise_soundness(self, y, spread, dy_lo, dy_hi):
        """For any concrete y and Δy in range, Δx must lie in the interval."""
        y_box = Box(np.array([y - spread]), np.array([y + spread]))
        dy_box = Box(np.array([dy_lo]), np.array([dy_hi]))
        interval = relu_distance_interval(y_box, dy_box)
        assert_boxes_equal(
            interval, _reference.relu_distance_interval(y_box, dy_box)
        )
        rng = np.random.default_rng(int(abs(y * 1000)) % 2**31)
        for _ in range(10):
            yy = rng.uniform(y - spread, y + spread)
            dd = rng.uniform(dy_lo, dy_hi)
            dx = max(yy + dd, 0.0) - max(yy, 0.0)
            assert interval.lo[0] - 1e-9 <= dx <= interval.hi[0] + 1e-9

    def test_stable_active_exact(self):
        y_box = Box(np.array([1.0]), np.array([2.0]))
        dy_box = Box(np.array([-0.5]), np.array([0.5]))
        out = relu_distance_interval(y_box, dy_box)
        assert out.scalar(0) == (-0.5, 0.5)

    def test_stable_inactive_zero(self):
        y_box = Box(np.array([-3.0]), np.array([-2.0]))
        dy_box = Box(np.array([-0.5]), np.array([0.5]))
        out = relu_distance_interval(y_box, dy_box)
        assert out.scalar(0) == (0.0, 0.0)

    def test_magnitude_never_exceeds_dy(self):
        y_box = Box(np.array([-1.0]), np.array([1.0]))
        dy_box = Box(np.array([-0.3]), np.array([0.2]))
        out = relu_distance_interval(y_box, dy_box)
        assert out.lo[0] >= -0.3 - 1e-12
        assert out.hi[0] <= 0.2 + 1e-12


class TestTwinIbp:
    def test_contains_sampled_pairs(self):
        rng = np.random.default_rng(3)
        for trial in range(15):
            layers = random_chain(rng, depth=3)
            box = Box.uniform(3, -1.0, 1.0)
            delta = 0.1
            twin = get_propagator("twin-ibp").propagate(layers, box, delta)
            ref = _reference.propagate_twin_box(layers, box, delta)
            for t in range(len(layers)):
                assert_boxes_equal(twin.y[t], ref.y[t])
                assert_boxes_equal(twin.dy[t], ref.dy[t])
                assert_boxes_equal(twin.x[t], ref.x[t + 1])
                assert_boxes_equal(twin.dx[t], ref.dx[t + 1])
            for _ in range(30):
                x = box.sample(rng)[0]
                dx = rng.uniform(-delta, delta, 3)
                xh = np.clip(x + dx, box.lo, box.hi)
                out = affine_chain_forward(layers, x)
                out_h = affine_chain_forward(layers, xh)
                assert twin.output.contains(out, tol=1e-7)
                assert twin.output_distance.contains(out_h - out, tol=1e-7)

    def test_zero_delta_gives_zero_distance(self):
        rng = np.random.default_rng(4)
        layers = random_chain(rng)
        twin = get_propagator("twin-ibp").propagate(layers, Box.uniform(3, -1, 1), 0.0)
        assert np.allclose(twin.output_distance.lo, 0.0)
        assert np.allclose(twin.output_distance.hi, 0.0)

    def test_distance_monotone_in_delta(self):
        rng = np.random.default_rng(5)
        layers = random_chain(rng)
        box = Box.uniform(3, -1, 1)
        small = get_propagator("twin-ibp").propagate(layers, box, 0.01)
        large = get_propagator("twin-ibp").propagate(layers, box, 0.1)
        assert np.all(large.output_distance.hi >= small.output_distance.hi - 1e-12)
        assert np.all(large.output_distance.lo <= small.output_distance.lo + 1e-12)

    def test_explicit_delta_box(self):
        rng = np.random.default_rng(6)
        layers = random_chain(rng)
        box = Box.uniform(3, -1, 1)
        twin = get_propagator("twin-ibp").propagate(
            layers, box, Box.uniform(3, -0.05, 0.05)
        )
        assert twin.delta_box.scalar(0) == (-0.05, 0.05)

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(7)
        layers = random_chain(rng)
        with pytest.raises(ValueError):
            get_propagator("twin-ibp").propagate(
                layers, Box.uniform(3, -1, 1), Box.uniform(2, -0.1, 0.1)
            )


class TestRangeTable:
    def test_from_interval_propagation(self):
        rng = np.random.default_rng(8)
        layers = random_chain(rng, depth=3)
        table = RangeTable.from_interval_propagation(
            layers, Box.uniform(3, -1, 1), 0.05
        )
        assert table.num_layers == 3
        assert table.layer(0).x.dim == 3
        assert table.layer(3).dx.dim == 2

    def test_output_variation_bound(self):
        rng = np.random.default_rng(9)
        layers = random_chain(rng, depth=2)
        table = RangeTable.from_interval_propagation(
            layers, Box.uniform(3, -1, 1), 0.05
        )
        eps = table.output_variation_bound()
        per_out = table.output_variation_bounds()
        assert eps == pytest.approx(per_out.max())
        assert eps >= 0

    def test_set_neuron_updates(self):
        rng = np.random.default_rng(10)
        layers = random_chain(rng, depth=2)
        table = RangeTable.from_interval_propagation(
            layers, Box.uniform(3, -1, 1), 0.05
        )
        table.layer(1).set_neuron(0, y=(-0.5, 0.5), dy=(-0.1, 0.1))
        assert table.layer(1).y.scalar(0) == (-0.5, 0.5)

    def test_set_neuron_invalid(self):
        rng = np.random.default_rng(11)
        layers = random_chain(rng, depth=2)
        table = RangeTable.from_interval_propagation(
            layers, Box.uniform(3, -1, 1), 0.05
        )
        with pytest.raises(ValueError):
            table.layer(1).set_neuron(0, y=(1.0, -1.0))
