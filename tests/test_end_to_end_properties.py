"""Cross-module property tests: the certification sandwich on random nets.

These are the repository's strongest correctness guarantees: for random
trained-like networks, every over-approximation must dominate the exact
bound, which must dominate every under-approximation — across encodings,
windows, and refinement levels.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds import Box
from repro.certify import (
    CertifierConfig,
    GlobalRobustnessCertifier,
    certify_exact_global,
)
from repro.nn.affine import AffineLayer, affine_chain_forward


def make_chain(seed: int, depth: int, width: int):
    rng = np.random.default_rng(seed)
    dims = [2] + [width] * (depth - 1) + [1]
    return [
        AffineLayer(
            rng.standard_normal((dims[i + 1], dims[i])) / np.sqrt(dims[i]),
            0.2 * rng.standard_normal(dims[i + 1]),
            relu=i < depth - 1,
        )
        for i in range(depth)
    ]


@given(
    seed=st.integers(0, 10**6),
    depth=st.integers(2, 3),
    width=st.integers(2, 4),
    delta=st.sampled_from([0.01, 0.05, 0.1]),
    window=st.sampled_from([1, 2]),
    refine_count=st.sampled_from([0, 2]),
)
@settings(max_examples=20, deadline=None)
def test_certification_sandwich(seed, depth, width, delta, window, refine_count):
    """sampled variation <= exact <= Algorithm 1's over-approximation.

    ``window=1`` answers every layer in closed form; ``window=2`` solves
    the deeper layers with the ``min Δy`` objectives mirrored, not solved.
    """
    layers = make_chain(seed, depth, width)
    box = Box.uniform(2, -1.0, 1.0)

    exact = certify_exact_global(layers, box, delta)
    ours = GlobalRobustnessCertifier(
        layers, CertifierConfig(window=window, refine_count=refine_count)
    ).certify(box, delta)

    # The exact MILP terminates within HiGHS's default relative MIP gap
    # (1e-4) and the over-approximation comes from separate HiGHS runs,
    # so the sandwich holds only up to that relative fuzz (seed 90 at
    # δ=0.01 violates an absolute 1e-7 comparison by 6.6e-7).
    assert ours.epsilon >= exact.epsilon - max(1e-7, 2e-4 * exact.epsilon)

    rng = np.random.default_rng(seed + 1)
    worst = 0.0
    for _ in range(200):
        x = box.sample(rng)[0]
        xh = np.clip(x + rng.uniform(-delta, delta, 2), box.lo, box.hi)
        d = abs(
            affine_chain_forward(layers, xh)[0] - affine_chain_forward(layers, x)[0]
        )
        worst = max(worst, d)
    assert exact.epsilon >= worst - 1e-7


@given(seed=st.integers(0, 10**6))
@settings(max_examples=10, deadline=None)
def test_refinement_never_loosens(seed):
    layers = make_chain(seed, depth=3, width=3)
    box = Box.uniform(2, -1.0, 1.0)
    eps = []
    for refine in (0, 2, 100):
        cert = GlobalRobustnessCertifier(
            layers, CertifierConfig(window=2, refine_count=refine)
        ).certify(box, 0.05)
        eps.append(cert.epsilon)
    # Monotonicity holds up to LP solver tolerance only: each chain of
    # LpRelaxY solves is an independent HiGHS run whose optimal-face
    # answers wobble at the ~1e-6 level (seeds 92 / 685957 violate a
    # 1e-8 comparison on the unrefined-vs-refined pair).
    assert eps[1] <= eps[0] + 1e-5
    assert eps[2] <= eps[1] + 1e-5


@given(seed=st.integers(0, 10**6))
@settings(max_examples=10, deadline=None)
def test_btne_itne_exact_agree(seed):
    layers = make_chain(seed, depth=2, width=3)
    box = Box.uniform(2, -1.0, 1.0)
    itne = certify_exact_global(layers, box, 0.05, encoding="itne")
    btne = certify_exact_global(layers, box, 0.05, encoding="btne")
    # Both encodings are exact, but each MILP terminates within HiGHS's
    # default relative MIP gap (1e-4), so the optima may differ by up to
    # that relative amount (seen in the wild: 3.5e-6 at eps ~ 0.086).
    assert itne.epsilon == pytest.approx(btne.epsilon, rel=2e-4, abs=1e-6)
