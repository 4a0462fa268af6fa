"""REPRO_SANITIZE contracts: per-contract violation tests + hook wiring."""

import numpy as np
import pytest

from repro import _sanitize
from repro._sanitize import (
    SanitizerError,
    check_basis,
    check_containment,
    check_finite,
    check_tiling,
    check_twin_symmetry,
    sanitizing,
)


class TestSwitch:
    def test_off_by_default_in_tests(self):
        # The tier-1 suite runs without REPRO_SANITIZE; the sanitized CI
        # step flips it.  Either way `sanitizing` must restore the state.
        before = _sanitize.ENABLED
        with sanitizing(True):
            assert _sanitize.ENABLED
        with sanitizing(False):
            assert not _sanitize.ENABLED
        assert _sanitize.ENABLED == before

    def test_restores_on_exception(self):
        before = _sanitize.ENABLED
        with pytest.raises(RuntimeError):
            with sanitizing(not before):
                raise RuntimeError("boom")
        assert _sanitize.ENABLED == before

    def test_error_is_assertion_subclass(self):
        assert issubclass(SanitizerError, AssertionError)


class TestContainment:
    def test_contained_passes(self):
        check_containment(
            np.array([0.1]), np.array([0.9]),
            np.array([0.0]), np.array([1.0]), "ok",
        )

    def test_escape_below_fails(self):
        with pytest.raises(SanitizerError, match="containment"):
            check_containment(
                np.array([-0.5]), np.array([0.9]),
                np.array([0.0]), np.array([1.0]), "below",
            )

    def test_escape_above_fails(self):
        with pytest.raises(SanitizerError, match="escapes"):
            check_containment(
                np.array([0.1]), np.array([2.0]),
                np.array([0.0]), np.array([1.0]), "above",
            )

    def test_tolerance_absorbs_roundoff(self):
        check_containment(
            np.array([-1e-12]), np.array([1.0 + 1e-12]),
            np.array([0.0]), np.array([1.0]), "jitter",
        )


class TestFinite:
    def test_finite_passes(self):
        check_finite("ok", c=np.ones(3), rhs=np.zeros(2), skipped=None)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_fails(self, bad):
        with pytest.raises(SanitizerError, match="finite"):
            check_finite("bad", c=np.array([1.0, bad]))

    def test_named_array_reported(self):
        with pytest.raises(SanitizerError, match="b_ub"):
            check_finite("bad", c=np.ones(2), b_ub=np.array([np.nan]))


class TestTiling:
    ROOT = (np.zeros(2), np.ones(2))

    def test_exact_tiling_passes(self):
        halves = [
            (np.array([0.0, 0.0]), np.array([0.5, 1.0])),
            (np.array([0.5, 0.0]), np.array([1.0, 1.0])),
        ]
        check_tiling(*self.ROOT, halves, "halves")

    def test_gap_fails(self):
        with pytest.raises(SanitizerError, match="cover"):
            check_tiling(
                *self.ROOT,
                [(np.array([0.0, 0.0]), np.array([0.5, 1.0]))],
                "gapped",
            )

    def test_escape_fails(self):
        with pytest.raises(SanitizerError, match="escapes"):
            check_tiling(
                *self.ROOT,
                [(np.array([0.0, 0.0]), np.array([1.5, 1.0]))],
                "escaped",
            )

    def test_empty_fails(self):
        with pytest.raises(SanitizerError, match="no terminal boxes"):
            check_tiling(*self.ROOT, [], "empty")

    def test_degenerate_root_dimension(self):
        root_lo, root_hi = np.array([0.0, 0.5]), np.array([1.0, 0.5])
        halves = [
            (np.array([0.0, 0.5]), np.array([0.5, 0.5])),
            (np.array([0.5, 0.5]), np.array([1.0, 0.5])),
        ]
        check_tiling(root_lo, root_hi, halves, "degenerate")


class TestBasis:
    def test_valid_basis_passes(self):
        check_basis([0, 2, 5], num_rows=3, num_cols=6, what="ok")
        check_basis(None, num_rows=3, num_cols=6, what="none is fine")

    def test_wrong_length_fails(self):
        with pytest.raises(SanitizerError, match="entries"):
            check_basis([0, 1], num_rows=3, num_cols=6, what="short")

    def test_out_of_range_fails(self):
        with pytest.raises(SanitizerError, match="column range"):
            check_basis([0, 1, 6], num_rows=3, num_cols=6, what="oob")

    def test_duplicate_fails(self):
        with pytest.raises(SanitizerError, match="duplicate"):
            check_basis([0, 1, 1], num_rows=3, num_cols=6, what="dup")


class TestTwinSymmetry:
    def test_agreement_passes(self):
        check_twin_symmetry([1.0, -2.0], [1.0 + 1e-12, -2.0], "ok")

    def test_mismatch_fails(self):
        with pytest.raises(SanitizerError, match="twin-symmetry"):
            check_twin_symmetry([0.5], [0.4], "loose")

    def test_missing_solve_bound_fails(self):
        with pytest.raises(SanitizerError, match="twin-symmetry"):
            check_twin_symmetry([None], [0.4], "no bound")

    def test_tolerance_is_relative(self):
        check_twin_symmetry([1000.0], [1000.0005], "wide", rtol=1e-6)
        with pytest.raises(SanitizerError):
            check_twin_symmetry([1000.0], [1000.01], "wide", rtol=1e-6)


# -- hook-site integration ----------------------------------------------------


def small_chain(seed=0, depth=3):
    from repro.nn.affine import AffineLayer

    rng = np.random.default_rng(seed)
    dims = [3] + [4] * (depth - 1) + [2]
    return [
        AffineLayer(
            rng.standard_normal((dims[i + 1], dims[i])) / np.sqrt(dims[i]),
            0.2 * rng.standard_normal(dims[i + 1]),
            relu=i < depth - 1,
        )
        for i in range(depth)
    ]


class TestHookSites:
    def test_symbolic_containment_hook_passes_on_sound_engine(self):
        from repro.bounds import Box, get_propagator

        layers = small_chain()
        with sanitizing():
            bounds = get_propagator("symbolic").propagate(
                layers, Box.uniform(3, 0.0, 1.0), 0.05
            )
        assert bounds.method == "symbolic"

    def test_standard_form_finite_hook_catches_poisoned_block(self):
        from repro.milp import Model

        model = Model("poisoned")
        x = model.add_var(lb=0.0, ub=1.0)
        y = model.add_var(lb=0.0, ub=1.0)
        block = model.add_linear_rows(
            np.array([[1.0, 2.0]]), "<=", np.array([1.0])
        )
        # Simulate an encoding bug: corrupt the block *after* ingestion
        # validation (the sanitizer is the last line of defense).
        block.data[0] = np.inf
        model.set_objective(x + y, "min")
        with sanitizing():
            with pytest.raises(SanitizerError, match="finite"):
                model.to_standard_form()
        # Off-mode: no check, the poisoned export goes through.
        with sanitizing(False):
            model.to_standard_form()

    def test_split_tiling_hook_passes_on_real_run(self):
        from repro.bounds import Box
        from repro.certify import SplitConfig, certify_local_split

        layers = small_chain(seed=3)
        with sanitizing():
            cert = certify_local_split(
                layers,
                np.array([0.4, 0.6, 0.5]),
                0.05,
                1e6,
                domain=Box.uniform(3, 0.0, 1.0),
                config=SplitConfig(max_depth=2),
            )
        assert cert.verdict == "certified"

    def test_warm_session_basis_hook_catches_corruption(self):
        from repro.milp import Model, open_session

        model = Model("warm")
        x = model.add_var(lb=0.0, ub=2.0)
        y = model.add_var(lb=0.0, ub=2.0)
        model.add_constr(x + y <= 2.0)
        model.set_objective(x + y, "max")
        session = open_session(
            model, backend="python:simplex", warm_start=True
        )
        assert session.solve().is_optimal  # seeds a basis
        assert session._basis is not None
        session._basis = list(session._basis) + [0]  # corrupt: wrong length
        with sanitizing():
            with pytest.raises(SanitizerError, match="warm-basis"):
                session.solve()

    def test_warm_session_passes_clean_under_sanitizer(self):
        from repro.milp import Model, open_session

        model = Model("warm-ok")
        x = model.add_var(lb=0.0, ub=2.0)
        y = model.add_var(lb=0.0, ub=2.0)
        model.add_constr(x + y <= 2.0)
        model.set_objective(x + y, "max")
        with sanitizing():
            with open_session(
                model, backend="python:simplex", warm_start=True
            ) as session:
                first = session.solve()
                session.set_var_bounds([x, y], 0.0, 0.5)
                second = session.solve()
        assert first.is_optimal and second.is_optimal
        assert second.objective == pytest.approx(1.0)

    @pytest.mark.parametrize("window,refine_count", [(1, 0), (2, 0), (2, 2)])
    def test_twin_symmetry_hooks_pass_on_real_run(
        self, monkeypatch, window, refine_count
    ):
        from repro.bounds import Box
        from repro.certify import CertifierConfig, GlobalRobustnessCertifier

        calls = []
        check = _sanitize.check_twin_symmetry
        monkeypatch.setattr(
            _sanitize, "check_twin_symmetry",
            lambda *args, **kw: calls.append(args[2]) or check(*args, **kw),
        )
        with sanitizing():
            cert = GlobalRobustnessCertifier(
                small_chain(seed=4),
                CertifierConfig(window=window, refine_count=refine_count),
            ).certify(Box.uniform(3, 0.0, 1.0), 0.05)
        assert np.all(np.isfinite(cert.epsilons))
        # One check per layer: a closed-form neuron or a mirrored min Δy.
        assert len(calls) == 3
        assert ("closed form" in calls[1]) == (window == 1)

    def test_closed_form_hook_catches_drift(self, monkeypatch):
        from repro.bounds import Box
        from repro.certify import CertifierConfig, GlobalRobustnessCertifier, global_cert

        exact = global_cert.affine_lp_ranges

        def drifted(layer, x_box, dx_box):
            y_box, dy_box = exact(layer, x_box, dx_box)
            return Box(y_box.lo + 0.1, y_box.hi + 0.1), dy_box

        monkeypatch.setattr(global_cert, "affine_lp_ranges", drifted)
        certifier = GlobalRobustnessCertifier(small_chain(), CertifierConfig(window=2))
        with sanitizing():
            with pytest.raises(SanitizerError, match="twin-symmetry.*closed form"):
                certifier.certify(Box.uniform(3, 0.0, 1.0), 0.05)

    def test_mirror_hook_catches_asymmetric_relaxation(self, monkeypatch):
        from repro.bounds import Box
        from repro.certify import CertifierConfig, GlobalRobustnessCertifier, global_cert

        encode = global_cert.encode_itne

        def unclipped(*args, **kw):
            # Drops the input clip and the second-copy range rows: the
            # second input may leave the box, so the pair set is no
            # longer swap-symmetric.
            return encode(*args, **{**kw, "clip_second_input": False})

        monkeypatch.setattr(global_cert, "encode_itne", unclipped)
        certifier = GlobalRobustnessCertifier(small_chain(), CertifierConfig(window=2))
        with sanitizing():
            with pytest.raises(SanitizerError, match="twin-symmetry.*min Δy"):
                certifier.certify(Box.uniform(3, 0.0, 1.0), 0.05)
