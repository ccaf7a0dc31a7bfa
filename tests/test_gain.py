"""Two-sided gain bounds, the worst input and its k-period ratio.

Closed-form bounds are checked directly; the k-period ratio is pinned
at the (1, 3, 1) reference point, checked against the RK45 simulation of
the same input, and checked for the structural facts that make the
estimate trustworthy: seam continuity of the input, monotone approach
from below, exact linear scaling in T and a tight needed horizon.  The
closed-form moments and input direction are checked against an RK45 flow
of the sampled control.
"""
from __future__ import annotations

import copy
import json
import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from peflow import cli, extremal2d, flow, gain
from peflow.signals import _gauss_legendre


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
    # the worst input on the (0.5, 1.5) extremal, which carries its control
    return gain.worst_input(*extremal2d.solve_extremal(0.5, 1.5))


def rk45_moments(a, b):
    """The one-period moments by the earlier recipe, independent of the
    closed-form m: omega0 propagated over the period 2T of the sampled
    control at tol 1e-11, a cubic spline through the accepted steps, and
    5-point Gauss-Legendre on each step.  Returns the moments, the steps
    and the states there."""
    c2, omega0, mu_ab = extremal2d.build_optimal_control(a, b)
    ts, ys = flow.propagate(c2, omega0, 0.0, c2.period, tol=1e-11)
    nodes, weights = _gauss_legendre(ts)
    m = CubicSpline(ts, ys, axis=0)(nodes)
    wm2 = weights * np.einsum("ij,ij->i", m, m)
    e = np.exp(2.0 * mu_ab / c2.period * nodes)
    return np.array([wm2.sum(), wm2 @ e, wm2 @ (e * e)]), ts, ys


SCALES = [(0.5, 1.5), (0.5, 0.5), (5e-7, 1.5e-6), (5e-9, 5e-9)]


def shape_off(params, rel=1e-3):
    """The trajectory of params with its shape k off by rel: not the
    extremal of params (ExtremalParams itself would refuse such a k)."""
    off = copy.copy(params)
    object.__setattr__(off, "k", params.k * (1.0 + rel))
    return extremal2d.ExtremalTrajectory(off)


class TestWorstInput:
    def test_continuous_at_seam(self, half_extremal):
        u = half_extremal
        P = u.period
        gap = np.linalg.norm(u(P - 1e-9) - u(1e-12))
        assert gap < 1e-6 * np.linalg.norm(u(1e-12))

    def test_rejects_perturbed_extremal(self):
        # a trajectory whose shape k is off by 1e-3 is not the extremal of
        # its params: the certificate's gram and cost residuals, relative to
        # scale, catch it at every scale, where an absolute seam check on
        # the monodromy passed a direction turned by 1e-3 at (1e-6, 3e-6)
        for a, b in [(0.5, 1.5), (5e-7, 1.5e-6), (5e-9, 5e-9)]:
            params, traj = extremal2d.solve_extremal(a, b)
            gain.worst_input(params, traj)
            with pytest.raises(ValueError, match="certificate"):
                gain.worst_input(params, shape_off(params))

    def test_gain_exits_1_on_a_failed_certificate(self, capsys, monkeypatch):
        def solve_off(a, b):
            params, _ = extremal2d.solve_extremal(a, b)
            return params, shape_off(params)

        monkeypatch.setattr(gain, "solve_extremal", solve_off)
        outs = []
        for _ in range(2):
            assert cli.main(["gain", "--a", "1", "--b", "3"]) == 1
            outs.append(capsys.readouterr().out)
        doc = json.loads(outs[0])
        assert outs[0] == outs[1]
        assert doc["passed"] is False and doc["error"]["type"] == "ValueError"
        assert "certificate (gram = " in doc["error"]["message"]

    def test_growth_envelope(self, half_extremal):
        # v(xi) = kappa e^{kappa xi} with kappa tied to the period contraction
        u = half_extremal
        mu_half = extremal2d.mu(0.5, 1.5)
        assert u.period == 2.0 * (0.5 + 1.5)
        assert u.kappa == pytest.approx(2.0 * mu_half / u.period, rel=1e-12)
        assert u.rho_hat == pytest.approx(math.exp(-2.0 * mu_half), rel=1e-8)

    @pytest.mark.parametrize("a, b", SCALES)
    def test_closed_form_matches_rk45_reference(self, a, b):
        # the moments, and the spline of the closed-form m that drives the
        # CSV trace, against the RK45 flow of omega0
        u = gain.worst_input(*extremal2d.solve_extremal(a, b))
        reference, ts, ys = rk45_moments(a, b)
        assert np.max(np.abs(np.array(u.moments) / reference - 1.0)) <= 2e-8
        assert np.max(np.abs(u.m(ts) - ys)) <= 1e-9


class TestSimulateGain:
    @pytest.mark.parametrize("a, b", [(1.0, 3.0), (0.01, 0.03), (1.0, 100.0)])
    def test_matches_the_closed_form_cut_at_its_tail(self, a, b):
        # simulate_gain stops the decay tail after _TAIL_PERIODS periods, so
        # it measures ratio(k)'s response mass less the tail's share
        # rho_hat^(2 _TAIL_PERIODS) past them: at (1, 100) the cut value is
        # 0.39 of ratio(3)
        k = 3
        u = gain.worst_input(*extremal2d.solve_extremal(a / 2, b / 2))
        I0, I1, I2 = u.moments
        r = u.rho_hat
        rk, r2n = r ** k, r ** (2 * gain._TAIL_PERIODS)
        Ix = (k * I2 - 2.0 * I1 * (1.0 - rk) / (1.0 - r)
              + I0 * ((1.0 - rk * rk) + (1.0 - rk) ** 2 * (1.0 - r2n)) / (1.0 - r * r))
        cut = math.sqrt(Ix / (k * u.kappa ** 2 * I2))
        assert gain.simulate_gain(u, k)[0] == pytest.approx(cut, rel=1e-6)

    def test_trace_input_column(self, half_extremal):
        # the |u| column is one vectorized evaluation over the driven rows
        u = half_extremal
        _, trace = gain.simulate_gain(u, k_periods=2)
        t_end = 2 * u.period
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
        u = gain.worst_input(*extremal2d.solve_extremal(a / 2, b / 2))
        ratio_nat, _ = gain.simulate_gain(u, k)
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
