"""Algorithm 1's skipped solves: closed-form layers and mirrored Δ ranges.

Algorithm 1 answers a depth-1 sub-network by interval arithmetic
(:func:`repro.certify.global_cert.affine_lp_ranges`) and never solves
``min Δy``: over the swap-symmetric pair set it is ``−max Δy``.  These
properties check both shortcuts against the solves they replace, and
that the second-copy range rows behind the symmetry leave the exact
twin MILP's answers alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds import Box
from repro.bounds.ranges import RangeTable
from repro.certify import certify_exact_global
from repro.certify.global_cert import affine_lp_ranges
from repro.encoding import encode_itne
from repro.milp.expr import as_expr
from repro.nn.affine import AffineLayer


def random_box(rng, dim):
    """An asymmetric box: random offsets and widths per coordinate."""
    lo = rng.uniform(-2.0, 1.0, dim)
    return Box(lo, lo + rng.uniform(0.05, 2.0, dim))


def random_chain(rng, depth, width, in_dim=2):
    dims = [in_dim] + [width] * (depth - 1) + [1]
    return [
        AffineLayer(
            rng.standard_normal((dims[i + 1], dims[i])) / np.sqrt(dims[i]),
            0.3 * rng.standard_normal(dims[i + 1]),
            relu=i < depth - 1,
        )
        for i in range(depth)
    ]


def optimum(model, expr, sense, mip_gap=None):
    model.set_objective(as_expr(expr), sense=sense)
    return model.solve(mip_gap=mip_gap).require_optimal().objective


@given(
    seed=st.integers(0, 10**6),
    in_dim=st.integers(1, 4),
    out_dim=st.integers(1, 3),
    delta_kind=st.sampled_from(["narrow", "wider-than-domain", "asymmetric"]),
)
@settings(max_examples=40, deadline=None)
def test_closed_form_equals_lp_optimum(seed, in_dim, out_dim, delta_kind):
    """Interval arithmetic over the projections is the single-layer LP optimum."""
    rng = np.random.default_rng(seed)
    layer = AffineLayer(
        rng.standard_normal((out_dim, in_dim)), rng.standard_normal(out_dim), relu=False
    )
    box = random_box(rng, in_dim)
    width = box.hi - box.lo
    if delta_kind == "narrow":
        delta = Box(-0.3 * width, 0.3 * width)
    elif delta_kind == "wider-than-domain":
        # The clip x + Δx ∈ box cuts the Δx box down to ±width.
        delta = Box(-2.5 * width, 2.5 * width)
    else:
        # Off-centre Δx boxes (some excluding 0) make the x projection
        # bind too; each keeps a feasible pair per coordinate.
        ends = np.sort(rng.uniform(-1.5, 1.5, (2, in_dim)) * width, axis=0)
        delta = Box(np.minimum(ends[0], 0.9 * width), np.maximum(ends[1], -0.9 * width))

    y_box, dy_box = affine_lp_ranges(layer, box, delta)

    enc = encode_itne([layer], box, delta, clip_second_input=True)
    for j in range(out_dim):
        want = [y_box.lo[j], y_box.hi[j], dy_box.lo[j], dy_box.hi[j]]
        got = [
            optimum(enc.model, enc.y[0][j], "min"),
            optimum(enc.model, enc.y[0][j], "max"),
            optimum(enc.model, enc.dy[0][j], "min"),
            optimum(enc.model, enc.dy[0][j], "max"),
        ]
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def mirrored_ranges(layers, box, delta):
    """The twin-IBP table with every Δy range cut to ``[−r, r]``, as in Algorithm 1."""
    table = RangeTable.from_interval_propagation(layers, box, delta)
    for rec in table.layers:
        radius = np.maximum(0.0, np.minimum(rec.dy.hi, -rec.dy.lo))
        rec.dy = Box(-radius, radius)
    return table


@given(
    seed=st.integers(0, 10**6),
    depth=st.integers(2, 3),
    width=st.integers(2, 4),
    delta=st.sampled_from([0.05, 0.2, 0.6]),
    refined=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_symmetric_ranges_mirror_the_optima(seed, depth, width, delta, refined):
    """On symmetric Δ ranges, LP and MILP ``min Δy`` equal ``−max Δy``."""
    rng = np.random.default_rng(seed)
    layers = random_chain(rng, depth, width)
    box = random_box(rng, 2)
    table = mirrored_ranges(layers, box, delta)
    masks = None if refined else [np.zeros(layer.out_dim, bool) for layer in layers]
    enc = encode_itne(layers, box, delta, ranges=table, refine_mask=masks)
    gap = 0.0 if refined else None
    hi = optimum(enc.model, enc.dy[-1][0], "max", mip_gap=gap)
    lo = optimum(enc.model, enc.dy[-1][0], "min", mip_gap=gap)
    assert lo == pytest.approx(-hi, rel=1e-9, abs=1e-9)


def exact_epsilons(model, distances, mip_gap=None):
    return np.array([
        max(abs(optimum(model, d, "max", mip_gap)), abs(optimum(model, d, "min", mip_gap)))
        for d in distances
    ])


@given(
    seed=st.integers(0, 10**6),
    depth=st.integers(2, 3),
    width=st.integers(2, 3),
    delta=st.sampled_from([0.05, 0.2]),
)
@settings(max_examples=15, deadline=None)
def test_exact_answers_unchanged_by_second_copy_rows(seed, depth, width, delta):
    """The exact twin MILP gives the same ε with or without the hat-range rows."""
    rng = np.random.default_rng(seed)
    layers = random_chain(rng, depth, width)
    box = random_box(rng, 2)

    # The formulation before the rows: the input clip alone, hat ranges
    # [y̲ + Δy̲, y̅ + Δy̅].
    plain = encode_itne(layers, box, delta, clip_second_input=False)
    for k, (x0, d0) in enumerate(zip(plain.input_vars, plain.input_dist_vars)):
        plain.model.add_constr(x0 + d0 >= float(box.lo[k]))
        plain.model.add_constr(x0 + d0 <= float(box.hi[k]))
    with_rows = encode_itne(layers, box, delta)

    before = exact_epsilons(plain.model, plain.output_distance, mip_gap=0.0)
    after = exact_epsilons(with_rows.model, with_rows.output_distance, mip_gap=0.0)
    assert after == pytest.approx(before, rel=1e-7, abs=1e-9)

    # certify_exact_global stops at HiGHS's default relative MIP gap (1e-4).
    cert = certify_exact_global(layers, box, delta)
    assert cert.epsilons == pytest.approx(before, rel=2e-4, abs=1e-6)
