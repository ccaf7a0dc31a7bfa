"""Two-sided gain bounds, the worst input and its k-period ratio.

Closed-form bounds are checked directly; the k-period ratio is pinned
at the (1, 3, 1) reference point, checked against the RK45 simulation of
the same input, and checked for the structural facts that make the
estimate trustworthy: seam continuity of the input, monotone approach
from below, exact linear scaling in T and a tight needed horizon.
"""
from __future__ import annotations

import json
import math

import numpy as np
import pytest

from peflow import cli, extremal2d, gain


class TestClosedFormBounds:
    def test_upper_formula(self):
        assert gain.gain_upper(0.5, 1.0) == 1.0 / (1.0 - math.exp(-0.5))
        assert gain.gain_upper(0.5, 2.0) == 2.0 * gain.gain_upper(0.5, 1.0)

    def test_upper_small_mu_keeps_precision(self):
        # 1 - e^{-mu} cancels for small mu; expm1 does not
        want = 1.0 / -math.expm1(-1e-8)
        assert gain.gain_upper(1e-8, 1.0) == pytest.approx(want, rel=1e-15)

    def test_lower_formula(self):
        assert gain.gain_lower(0.4, 1.0) == 1.0 / 0.8
        assert gain.gain_lower(0.4, 2.0) == 2.0 * gain.gain_lower(0.4, 1.0)

    def test_rejects_nonpositive(self):
        for fn in (gain.gain_upper, gain.gain_lower):
            with pytest.raises(ValueError):
                fn(0.0, 1.0)
            with pytest.raises(ValueError):
                fn(0.5, -1.0)


@pytest.fixture(scope="module")
def half_extremal():
    c2, omega_star, mu_half = extremal2d.build_optimal_control(0.5, 1.5)
    return c2, omega_star, mu_half


class TestWorstInput:
    def test_continuous_at_seam(self, half_extremal):
        c2, omega_star, mu_half = half_extremal
        u = gain.worst_input(c2, omega_star, mu_half)
        P = c2.period
        gap = np.linalg.norm(u(P - 1e-9) - u(1e-12))
        assert gap < 1e-6 * np.linalg.norm(u(1e-12))

    def test_rejects_wrong_eigenvector(self, half_extremal):
        c2, omega_star, mu_half = half_extremal
        wrong = np.array([omega_star[1], -omega_star[0]])
        with pytest.raises(ValueError):
            gain.worst_input(c2, wrong, mu_half)

    def test_growth_envelope(self, half_extremal):
        # v(xi) = kappa e^{kappa xi} with kappa tied to the period contraction
        c2, omega_star, mu_half = half_extremal
        u = gain.worst_input(c2, omega_star, mu_half)
        P = c2.period
        assert u.kappa == pytest.approx(2.0 * mu_half / P, rel=1e-12)
        assert u.rho_hat == pytest.approx(math.exp(-2.0 * mu_half), rel=1e-8)


class TestSimulateGain:
    def test_trace_input_column(self, half_extremal):
        # the |u| column is one vectorized evaluation over the driven rows
        c2, omega_star, mu_half = half_extremal
        u = gain.worst_input(c2, omega_star, mu_half)
        _, trace = gain.simulate_gain(c2, u, k_periods=2)
        t_end = c2.t_start + 2 * c2.period
        per_row = [np.linalg.norm(u(t)) if t <= t_end else 0.0 for t in trace[:, 0]]
        assert trace[:, 2] == pytest.approx(per_row, rel=1e-12, abs=0.0)
        assert trace[-1, 0] > t_end


class TestGainEstimate:
    def test_frozen_131(self):
        report = gain.gain_estimate(1.0, 3.0, 1.0, k_periods=50)
        assert report.lower == pytest.approx(1.2176607561453698, rel=1e-9)
        assert report.simulated == pytest.approx(1.2027319288545875, rel=1e-7)
        assert report.upper == pytest.approx(2.614777969726222, rel=1e-9)
        assert report.mu_half == pytest.approx(0.41062340021764465, rel=1e-9)

    def test_ordering_and_band(self):
        report = gain.gain_estimate(1.0, 3.0, 1.0, k_periods=50)
        assert report.lower <= report.simulated * 1.02
        assert report.simulated <= report.upper
        assert report.lower < report.upper

    def test_approach_from_below(self):
        s8 = gain.gain_estimate(1.0, 3.0, 1.0, k_periods=8).simulated
        s16 = gain.gain_estimate(1.0, 3.0, 1.0, k_periods=16).simulated
        s32 = gain.gain_estimate(1.0, 3.0, 1.0, k_periods=32).simulated
        lower = gain.gain_estimate(1.0, 3.0, 1.0, k_periods=8).lower
        assert s8 < s16 < s32 < lower

    def test_linear_in_T(self):
        r1 = gain.gain_estimate(1.0, 3.0, 1.0, k_periods=8)
        r2 = gain.gain_estimate(1.0, 3.0, 2.0, k_periods=8)
        assert r2.lower == 2.0 * r1.lower
        assert r2.upper == 2.0 * r1.upper
        assert r2.simulated == 2.0 * r1.simulated

    def test_small_a_long_horizon_completes(self):
        # near-duplicate breakpoints once forced a one-ulp step here and
        # raised IntegrationError (step size underflow at t = 7.8)
        report = gain.gain_estimate(0.3, 1.0, 1.0, k_periods=50)
        assert math.isfinite(report.simulated)
        assert report.lower < report.upper

    def test_equal_bounds(self):
        # a = b runs the same pendulum pipeline as a < b
        report = gain.gain_estimate(1.0, 1.0, 1.0, k_periods=50)
        assert report.mu == extremal2d.mu(1.0, 1.0)
        assert report.mu_half == extremal2d.mu(0.5, 0.5)
        assert report.lower <= report.simulated * 1.02
        assert report.simulated <= report.upper

    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_empty_horizon(self, k):
        with pytest.raises(ValueError, match="k_periods"):
            gain.gain_estimate(1.0, 3.0, 1.0, k_periods=k)

    @pytest.mark.parametrize("a, b", [(1.0, 3.0), (2.0, 4.5)])
    @pytest.mark.parametrize("k", [3, 50])
    def test_closed_form_matches_simulation(self, a, b, k):
        report = gain.gain_estimate(a, b, 1.0, k_periods=k)
        c2, omega_star, mu_half = extremal2d.build_optimal_control(a / 2, b / 2)
        u = gain.worst_input(c2, omega_star, mu_half)
        ratio_nat, _ = gain.simulate_gain(c2, u, k)
        measured = 0.5 * ratio_nat / (0.5 * (a + b))
        assert report.simulated == pytest.approx(measured, rel=5e-8)

    def test_horizon_needed_is_tight(self, capsys):
        def run(k):
            code = cli.main(["gain", "--a", "1", "--b", "3", "--T", "1",
                             "--periods", str(k)])
            return code, json.loads(capsys.readouterr().out)

        code, doc = run(50)
        needed = doc["gain"]["horizon_needed"]
        assert code == 0 and 1 < needed < 50
        assert run(needed)[0] == 0
        code, doc = run(needed - 1)
        assert code == 1 and doc["gain"]["horizon_needed"] == needed
