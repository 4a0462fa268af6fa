"""Batched propagation: bit-identity per row (unit + property).

The load-bearing contract of :mod:`repro.bounds.batched` is not mere
closeness — every row of a batched result must be **bitwise equal** to
the independent single-query reference kernels of
``tests/bounds/_reference.py`` on that row's box, and to the engine's
own ``propagate`` (the ``Q=1`` row of the same kernel), so a row never
depends on the batch size.  These tests pin that contract for every
registered engine, for the loop fallback third-party propagators get,
and for the ``REPRO_SANITIZE=1`` batch-row agreement check that guards
native batched implementations at runtime.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _sanitize
from repro.bounds import (
    BatchedBox,
    BatchedLayerBounds,
    Box,
    as_batched_box,
    as_batched_delta,
    available_propagators,
    get_propagator,
    propagate_many,
)
from repro.nn.affine import AffineLayer
from tests.bounds._reference import reference_propagate


def random_chain(rng, depth=3, width=5, in_dim=4, out_dim=2):
    dims = [in_dim] + [width] * (depth - 1) + [out_dim]
    return [
        AffineLayer(
            rng.standard_normal((dims[i + 1], dims[i])),
            0.3 * rng.standard_normal(dims[i + 1]),
            relu=i < depth - 1,
        )
        for i in range(depth)
    ]


def random_stack(rng, queries, dim):
    center = rng.standard_normal((queries, dim))
    radius = np.abs(rng.standard_normal((queries, dim))) + 0.05
    return BatchedBox(center - radius, center + radius)


def assert_rows_bit_identical(batched, scalar_rows):
    """Every lo/hi array of every layer must be bitwise equal per row."""
    assert batched.num_layers == len(scalar_rows[0].y)
    for q, scalar in enumerate(scalar_rows):
        row = batched.row(q)
        for t in range(batched.num_layers):
            np.testing.assert_array_equal(row.y[t].lo, scalar.y[t].lo)
            np.testing.assert_array_equal(row.y[t].hi, scalar.y[t].hi)
            np.testing.assert_array_equal(row.x[t].lo, scalar.x[t].lo)
            np.testing.assert_array_equal(row.x[t].hi, scalar.x[t].hi)
        if scalar.dy is not None:
            assert row.dy is not None and row.dx is not None
            for t in range(batched.num_layers):
                np.testing.assert_array_equal(row.dy[t].lo, scalar.dy[t].lo)
                np.testing.assert_array_equal(row.dy[t].hi, scalar.dy[t].hi)
                np.testing.assert_array_equal(row.dx[t].lo, scalar.dx[t].lo)
                np.testing.assert_array_equal(row.dx[t].hi, scalar.dx[t].hi)


class TestBatchedBox:
    def test_ctor_copies_caller_arrays(self):
        lo = np.zeros((2, 3))
        hi = np.ones((2, 3))
        stack = BatchedBox(lo, hi)
        lo[0, 0] = -100.0
        hi[0, 0] = 100.0
        assert stack.lo[0, 0] == 0.0
        assert stack.hi[0, 0] == 1.0

    def test_ctor_rejects_inverted_rows(self):
        lo = np.zeros((3, 2))
        hi = np.ones((3, 2))
        hi[1, 0] = -1.0
        with pytest.raises(ValueError, match=r"\[1\]"):
            BatchedBox(lo, hi)

    def test_row_matches_from_boxes(self):
        rng = np.random.default_rng(0)
        boxes = [
            Box(c - r, c + r)
            for c, r in zip(
                rng.standard_normal((4, 3)),
                np.abs(rng.standard_normal((4, 3))) + 0.1,
            )
        ]
        stack = BatchedBox.from_boxes(boxes)
        for q, box in enumerate(boxes):
            row = stack.row(q)
            np.testing.assert_array_equal(row.lo, box.lo)
            np.testing.assert_array_equal(row.hi, box.hi)

    def test_affine_rows_match_scalar(self):
        rng = np.random.default_rng(1)
        stack = random_stack(rng, 6, 4)
        weight = rng.standard_normal((3, 4))
        bias = rng.standard_normal(3)
        out = stack.affine(weight, bias)
        for q in range(6):
            scalar = stack.row(q).affine(weight, bias)
            np.testing.assert_array_equal(out.lo[q], scalar.lo)
            np.testing.assert_array_equal(out.hi[q], scalar.hi)


class TestBatchedLayerBoundsContainer:
    def test_post_init_copies_layer_lists(self):
        rng = np.random.default_rng(2)
        layers = random_chain(rng)
        stack = random_stack(rng, 3, 4)
        bounds = propagate_many("ibp", layers, stack)
        y = list(bounds.y)
        y_list_arg = bounds.y
        y_list_arg.append("sentinel")  # mutating our reference ...
        fresh = propagate_many("ibp", layers, stack)
        assert len(fresh.y) == len(y)  # ... never leaks into new results

    def test_stack_roundtrips_scalar_rows(self):
        rng = np.random.default_rng(3)
        layers = random_chain(rng)
        stack = random_stack(rng, 5, 4)
        scalar_rows = [
            get_propagator("symbolic").propagate(layers, stack.row(q))
            for q in range(5)
        ]
        restacked = BatchedLayerBounds.stack(scalar_rows)
        assert_rows_bit_identical(restacked, scalar_rows)


class TestPropagateManyBitIdentity:
    @pytest.mark.parametrize("name", available_propagators())
    @given(seed=st.integers(0, 2**20), queries=st.integers(1, 7))
    @settings(max_examples=15, deadline=None)
    def test_rows_match_scalar_loop(self, name, seed, queries):
        rng = np.random.default_rng(seed)
        layers = random_chain(rng)
        stack = random_stack(rng, queries, 4)
        # twin-ibp refuses delta-less propagation; exercise all deltas
        # the engine accepts.
        delta_specs = [0.1, rng.uniform(0.01, 0.5, size=queries)]
        if name != "twin-ibp":
            delta_specs.append(None)
        for deltas in delta_specs:
            batched = propagate_many(name, layers, stack, deltas)
            row_deltas = [
                None if deltas is None else float(np.ravel(deltas)[0])
                if np.size(deltas) == 1
                else float(np.ravel(deltas)[q])
                for q in range(queries)
            ]
            # Parity with the independent single-query reference kernels.
            reference_rows = [
                reference_propagate(name, layers, stack.row(q), row_deltas[q])
                for q in range(queries)
            ]
            assert_rows_bit_identical(batched, reference_rows)
            assert batched.method == reference_rows[0].method
            # Batch-size independence: each row equals its Q=1 propagate.
            single_rows = [
                get_propagator(name).propagate(layers, stack.row(q), row_deltas[q])
                for q in range(queries)
            ]
            assert_rows_bit_identical(batched, single_rows)
            assert batched.method == single_rows[0].method

    def test_box_delta_and_box_list_inputs(self):
        rng = np.random.default_rng(7)
        layers = random_chain(rng)
        boxes = [random_stack(rng, 1, 4).row(0) for _ in range(4)]
        delta_box = Box.uniform(4, -0.05, 0.05)
        batched = propagate_many("symbolic", layers, boxes, delta_box)
        for q, box in enumerate(boxes):
            scalar = get_propagator("symbolic").propagate(layers, box, delta_box)
            assert_rows_bit_identical(
                BatchedLayerBounds.stack([scalar]), [scalar]
            )
            row = batched.row(q)
            for t in range(batched.num_layers):
                np.testing.assert_array_equal(row.y[t].lo, scalar.y[t].lo)
                np.testing.assert_array_equal(row.dy[t].hi, scalar.dy[t].hi)

    def test_fallback_loop_for_unbatched_engine(self):
        class LoopOnly:
            """Third-party engine: scalar propagate only."""

            name = "loop-only-test"

            def propagate(self, layers, box, delta=None):
                return get_propagator("ibp").propagate(layers, box, delta)

        rng = np.random.default_rng(8)
        layers = random_chain(rng)
        stack = random_stack(rng, 4, 4)
        batched = propagate_many(LoopOnly(), layers, stack)
        scalar_rows = [
            get_propagator("ibp").propagate(layers, stack.row(q))
            for q in range(4)
        ]
        assert_rows_bit_identical(batched, scalar_rows)


class TestBatchRowSanitizer:
    def test_native_batched_engines_pass_under_sanitizer(self):
        rng = np.random.default_rng(9)
        layers = random_chain(rng)
        stack = random_stack(rng, 5, 4)
        with _sanitize.sanitizing():
            for name in available_propagators():
                deltas = None if name != "twin-ibp" else 0.1
                propagate_many(name, layers, stack, deltas)

    def test_divergent_native_batch_is_caught(self):
        class Corrupt:
            """Native batched path that silently diverges on one row."""

            name = "corrupt-batch-test"

            def propagate(self, layers, box, delta=None):
                return get_propagator("ibp").propagate(layers, box, delta)

            def propagate_many(self, layers, boxes, deltas=None):
                rows = [
                    self.propagate(layers, boxes.row(q))
                    for q in range(boxes.num_queries)
                ]
                from repro.bounds import BatchedLayerBounds

                result = BatchedLayerBounds.stack(rows)
                result.y[-1].lo[:, 0] -= 0.5  # off-by-a-bit everywhere
                return result

        rng = np.random.default_rng(10)
        layers = random_chain(rng)
        stack = random_stack(rng, 4, 4)
        with _sanitize.sanitizing():
            with pytest.raises(_sanitize.SanitizerError, match="batch-row"):
                propagate_many(Corrupt(), layers, stack)

    def test_coercion_helpers_roundtrip(self):
        rng = np.random.default_rng(11)
        stack = random_stack(rng, 3, 4)
        assert as_batched_box(stack) is stack
        single = as_batched_box(stack.row(0))
        assert single.num_queries == 1
        assert as_batched_delta(None, 3, 4) is None
        per_query = as_batched_delta(np.array([0.1, 0.2, 0.3]), 3, 4)
        assert per_query.num_queries == 3
        np.testing.assert_array_equal(per_query.hi[1], np.full(4, 0.2))
        # A numpy scalar radius is one shared radius, as a float is.
        shared = as_batched_delta(np.float32(0.25), 3, 4)
        np.testing.assert_array_equal(shared.lo, np.full((3, 4), -0.25))
