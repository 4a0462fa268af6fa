"""Input-splitting tier: verdict agreement, tiling invariant, deadlines."""

import time

import numpy as np
import pytest

from repro.bounds import Box
from repro.certify import (
    SplitConfig,
    certify_exact_global,
    certify_global_split,
    certify_local_exact,
    certify_local_split,
)
from repro.zoo import get_network


def root_bound(layers, box):
    """Symbolic variation bound at the root (what the tier starts from)."""
    from repro.bounds import get_propagator
    from repro.certify.presolve import variation_from_reference
    from repro.nn.affine import affine_chain_forward

    bounds = get_propagator("symbolic").propagate(layers, box)
    base = affine_chain_forward(layers, box.center)
    out = bounds.output
    return float(variation_from_reference(out.lo, out.hi, base).max())


def undecided_epsilon(layers, center, delta, domain, exact_eps):
    """A target strictly between the exact ε and the root bound, or None.

    Such a target cannot be proved at the root (bound too loose) and
    cannot be refuted anywhere (it exceeds the true ε), so the tier is
    forced to actually split.
    """
    from repro.certify.presolve import perturbation_ball

    ball = perturbation_ball(center, delta, domain)
    ub = root_bound(layers, ball)
    if ub <= exact_eps * 1.0001:
        return None
    return 0.5 * (exact_eps + ub)


def random_chain(rng, depth=3, width=5, in_dim=3, out_dim=2, scale=1.5):
    from repro.nn.affine import AffineLayer

    dims = [in_dim] + [width] * (depth - 1) + [out_dim]
    return [
        AffineLayer(
            scale * rng.standard_normal((dims[i + 1], dims[i])) / np.sqrt(dims[i]),
            0.2 * rng.standard_normal(dims[i + 1]),
            relu=i < depth - 1,
        )
        for i in range(depth)
    ]


@pytest.fixture(scope="module")
def setting():
    rng = np.random.default_rng(0)
    layers = random_chain(rng, depth=3)
    domain = Box.uniform(3, 0.0, 1.0)
    center = np.array([0.4, 0.6, 0.5])
    delta = 0.05
    return layers, domain, center, delta


class TestConfigValidation:
    def test_bad_max_domains(self):
        with pytest.raises(ValueError):
            SplitConfig(max_domains=0)

    def test_bad_depth(self):
        with pytest.raises(ValueError):
            SplitConfig(max_depth=-1)

    def test_bad_time_limit(self):
        with pytest.raises(ValueError):
            SplitConfig(time_limit=0.0)
        with pytest.raises(ValueError):
            SplitConfig(time_limit=float("nan"))


class TestLocalSplit:
    def test_certified_and_refuted_basics(self, setting):
        layers, domain, center, delta = setting
        cert = certify_local_split(layers, center, delta, 1e6, domain=domain)
        assert cert.method == "split"
        assert cert.verdict == "certified"
        assert cert.exact
        refuted = certify_local_split(layers, center, delta, 1e-9, domain=domain)
        assert refuted.verdict == "refuted"
        assert refuted.epsilon > 1e-9  # witness beats the target

    def test_output_range_sound_on_every_verdict(self, setting):
        """output_lo/hi must enclose the true reachable outputs even for
        refuted (and interrupted) runs, where no subdomain hull exists."""
        layers, domain, center, delta = setting
        exact = certify_local_exact(layers, center, delta, domain=domain)
        for epsilon in (1e-9, exact.epsilon * 1.2):
            cert = certify_local_split(layers, center, delta, epsilon, domain=domain)
            assert np.all(cert.output_lo <= exact.output_lo + 1e-7)
            assert np.all(cert.output_hi >= exact.output_hi - 1e-7)

    def test_verdicts_agree_with_monolithic_milp(self):
        """Property: split verdicts == certify_local_exact verdicts."""
        rng = np.random.default_rng(1)
        checked = 0
        for trial in range(6):
            layers = random_chain(rng, depth=int(rng.integers(2, 4)))
            domain = Box.uniform(3, 0.0, 1.0)
            center = domain.sample(rng)[0]
            delta = 0.08
            exact = certify_local_exact(layers, center, delta, domain=domain)
            for factor in (0.3, 0.85, 1.15, 3.0):
                epsilon = max(exact.epsilon * factor, 1e-9)
                cert = certify_local_split(
                    layers, center, delta, epsilon, domain=domain
                )
                assert cert.verdict in ("certified", "refuted")
                checked += 1
                if cert.verdict == "certified":
                    assert exact.epsilon <= epsilon + 1e-7
                else:
                    assert exact.epsilon > epsilon - 1e-7
        assert checked > 0

    def test_verdicts_agree_on_zoo_network(self):
        """The satellite's zoo check: Table-1 DNN-1, both verdict sides."""
        entry = get_network(1)
        layers = entry.network.to_affine_layers()
        domain = Box.uniform(entry.network.input_dim, 0.0, 1.0)
        rng = np.random.default_rng(5)
        center = domain.sample(rng)[0]
        delta = 10 * entry.delta  # widen the ball so bounds are not trivial
        exact = certify_local_exact(layers, center, delta, domain=domain)
        for factor in (0.8, 1.25):
            epsilon = exact.epsilon * factor
            cert = certify_local_split(layers, center, delta, epsilon, domain=domain)
            expected = "certified" if exact.epsilon <= epsilon else "refuted"
            assert cert.verdict == expected

    def test_milp_leaf_path_agrees(self):
        """max_depth=0 forces a root-undecided query straight to a MILP
        leaf, so the verdict comes from the leaf solver alone."""
        rng = np.random.default_rng(19)
        layers = random_chain(rng, depth=3)
        domain = Box.uniform(3, 0.0, 1.0)
        center = np.array([0.4, 0.6, 0.5])
        delta = 0.05
        exact = certify_local_exact(layers, center, delta, domain=domain)
        epsilon = undecided_epsilon(layers, center, delta, domain, exact.epsilon)
        if epsilon is None:
            pytest.skip("symbolic bound tight on this net: no undecided window")
        cert = certify_local_split(
            layers, center, delta, epsilon, domain=domain,
            config=SplitConfig(max_depth=0),
        )
        assert cert.verdict == "certified"  # exact ε < target by choice
        assert cert.detail["milp_leaves"] == 1  # the root itself

    def test_certified_bound_is_sound(self, setting):
        layers, domain, center, delta = setting
        exact = certify_local_exact(layers, center, delta, domain=domain)
        cert = certify_local_split(
            layers, center, delta, exact.epsilon * 1.2, domain=domain
        )
        assert cert.verdict == "certified"
        # The per-output bounds must dominate the true variation.
        assert np.all(cert.epsilons >= exact.epsilons - 1e-7)


class TestTilingInvariant:
    """Emitted subdomains exactly tile the root box (the soundness core)."""

    @staticmethod
    def assert_exact_tiling(boxes, root_lo, root_hi):
        los = np.stack([lo for lo, _ in boxes])
        his = np.stack([hi for _, hi in boxes])
        # (a) containment in the root box
        assert np.all(los >= root_lo - 1e-12)
        assert np.all(his <= root_hi + 1e-12)
        # (b) no volume lost: the subdomain volumes sum to the root's
        root_volume = float(np.prod(root_hi - root_lo))
        volumes = np.prod(his - los, axis=1)
        assert np.sum(volumes) == pytest.approx(root_volume, rel=1e-9)
        # (c) no overlap: every pairwise intersection has zero volume
        for i in range(len(boxes)):
            inter_lo = np.maximum(los[i], los[i + 1 :])
            inter_hi = np.minimum(his[i], his[i + 1 :])
            overlap = np.prod(np.clip(inter_hi - inter_lo, 0.0, None), axis=1)
            assert np.all(overlap <= 1e-15)

    def test_local_leaves_tile_the_ball(self):
        rng = np.random.default_rng(3)
        layers = random_chain(rng, depth=3, width=8)
        domain = Box.uniform(3, 0.0, 1.0)
        center = np.array([0.5, 0.5, 0.5])
        delta = 0.2
        exact = certify_local_exact(layers, center, delta, domain=domain)
        epsilon = undecided_epsilon(layers, center, delta, domain, exact.epsilon)
        if epsilon is None:
            pytest.skip("symbolic bound tight on this net: no undecided window")
        config = SplitConfig(record_boxes=True, max_domains=64)
        cert = certify_local_split(
            layers, center, delta, epsilon, domain=domain, config=config,
        )
        assert cert.verdict == "certified"
        boxes = cert.detail["leaf_boxes"]
        assert len(boxes) > 1  # the run actually split
        from repro.certify.presolve import perturbation_ball

        ball = perturbation_ball(center, delta, domain)
        self.assert_exact_tiling(boxes, ball.lo, ball.hi)

    def test_global_leaves_tile_the_domain(self, setting):
        layers, domain, _, delta = setting
        g_exact = certify_exact_global(layers, domain, delta)
        config = SplitConfig(record_boxes=True, max_domains=64)
        cert = certify_global_split(
            layers, domain, delta, g_exact.epsilon * 1.05, config=config
        )
        assert cert.verdict == "certified"
        boxes = cert.detail["leaf_boxes"]
        assert len(boxes) > 1
        self.assert_exact_tiling(boxes, domain.lo, domain.hi)


class TestGlobalSplit:
    def test_verdicts_agree_with_exact_milp(self):
        rng = np.random.default_rng(2)
        checked = 0
        for trial in range(3):
            layers = random_chain(rng, depth=2, width=4)
            domain = Box.uniform(3, 0.0, 1.0)
            delta = 0.05
            exact = certify_exact_global(layers, domain, delta)
            assert exact.exact
            for factor in (0.4, 0.9, 1.1, 2.5):
                epsilon = max(exact.epsilon * factor, 1e-9)
                cert = certify_global_split(layers, domain, delta, epsilon)
                assert cert.verdict in ("certified", "refuted")
                checked += 1
                if cert.verdict == "certified":
                    assert exact.epsilon <= epsilon + 1e-7
                else:
                    assert exact.epsilon > epsilon - 1e-7
        assert checked > 0

    def test_twin_clipped_to_full_domain_not_leaf(self):
        """The leaf MILP must let the perturbed copy leave the leaf box
        (clipping it to the leaf would unsoundly shrink Problem 1): the
        split ε bound must therefore dominate the monolithic exact ε."""
        rng = np.random.default_rng(11)
        layers = random_chain(rng, depth=2, width=4)
        domain = Box.uniform(3, 0.0, 1.0)
        delta = 0.3  # large: pairs frequently straddle subdomain borders
        exact = certify_exact_global(layers, domain, delta)
        cert = certify_global_split(
            layers, domain, delta, exact.epsilon * 1.02,
            config=SplitConfig(max_domains=32),
        )
        assert cert.verdict == "certified"
        assert cert.epsilon >= exact.epsilon - 1e-7

    def test_refuted_records_witness_pair(self, setting):
        layers, domain, _, delta = setting
        cert = certify_global_split(layers, domain, delta, 1e-9)
        assert cert.verdict == "refuted"
        assert cert.exact


class TestDeadlineSoundness:
    def test_interrupted_run_is_undecided_with_finite_bound(self):
        rng = np.random.default_rng(4)
        layers = random_chain(rng, depth=3, width=10)
        domain = Box.uniform(3, 0.0, 1.0)
        center = np.array([0.5, 0.5, 0.5])
        delta = 0.15
        exact = certify_local_exact(layers, center, delta, domain=domain)
        # A deadline that expires immediately: nothing gets decided
        # beyond the root bound, which is too loose for this target.
        config = SplitConfig(time_limit=1e-9)
        cert = certify_local_split(
            layers, center, delta, exact.epsilon * 1.01, domain=domain,
            config=config,
        )
        if cert.verdict != "undecided":
            pytest.skip("query decided before the deadline could fire")
        assert not cert.exact
        assert np.all(np.isfinite(cert.epsilons))
        # The interval bound carried out must still be sound.
        assert np.all(cert.epsilons >= exact.epsilons - 1e-7)

    def test_global_interrupted_run_sound(self, setting):
        layers, domain, _, delta = setting
        exact = certify_exact_global(layers, domain, delta)
        cert = certify_global_split(
            layers, domain, delta, exact.epsilon * 1.01,
            config=SplitConfig(time_limit=1e-9),
        )
        if cert.verdict != "undecided":
            pytest.skip("query decided before the deadline could fire")
        assert not cert.exact
        assert np.all(np.isfinite(cert.epsilons))
        assert cert.epsilon >= exact.epsilon - 1e-7

    def test_unlimited_run_always_decides(self, setting):
        layers, domain, center, delta = setting
        exact = certify_local_exact(layers, center, delta, domain=domain)
        for factor in (0.9, 1.1):
            cert = certify_local_split(
                layers, center, delta, exact.epsilon * factor, domain=domain
            )
            assert cert.verdict in ("certified", "refuted")
            assert cert.exact


class TestParallelLeaves:
    def test_leaf_workers_match_serial(self, setting):
        layers, domain, center, delta = setting
        exact = certify_local_exact(layers, center, delta, domain=domain)
        epsilon = exact.epsilon * 1.05
        serial = certify_local_split(
            layers, center, delta, epsilon, domain=domain,
            config=SplitConfig(max_depth=1, seed=7),
        )
        parallel = certify_local_split(
            layers, center, delta, epsilon, domain=domain,
            config=SplitConfig(max_depth=1, seed=7, leaf_workers=2),
        )
        assert serial.verdict == parallel.verdict == "certified"
        assert np.allclose(serial.epsilons, parallel.epsilons)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_leaves_share_the_deadline(self, workers, monkeypatch):
        """Each leaf's budget is measured when it is dispatched.

        Six leaves under a 1 s deadline, with a leaf solver that spends
        its whole budget: the first leaf on each worker uses the
        deadline up, and the leaves not dispatched before it stay
        undecided (``None``).  Runs fault-free: an ambient chaos
        schedule would spend part of the deadline on retries.
        """
        from repro import _faults
        from repro.certify import splitting

        def spend_budget(layers, leaf, base, backend, time_limit):
            time.sleep(time_limit)
            return time_limit

        monkeypatch.setattr(splitting, "_solve_local_leaf", spend_budget)
        monkeypatch.setattr(_faults, "_PLAN", None)
        monkeypatch.setattr(_faults, "ENABLED", False)
        box = Box.uniform(1, 0.0, 1.0)
        leaves = [
            splitting._Leaf(box, None, np.array([float(k)]), 1) for k in range(6)
        ]
        t0 = time.perf_counter()
        outcomes = splitting._solve_leaves(
            "local", [], leaves, None, SplitConfig(leaf_workers=workers), t0 + 1.0
        )
        elapsed = time.perf_counter() - t0
        budgets = [o for o in outcomes if o is not None]
        assert len(budgets) == workers
        assert all(b <= 1.0 for b in budgets)
        assert elapsed < 2.0
