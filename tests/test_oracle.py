"""Gradient search over piecewise-constant rank-one controls.

The oracle must stay independent of the pendulum synthesis: it only
shares the flow integrator for the final cost evaluation.  Tests here
use small budgets; the full (N=40, 20 seeds) run lives in acceptance.
"""
from __future__ import annotations

import numpy as np
import pytest

from peflow import extremal2d, flow, oracle, signals


class TestBruteForce:
    def test_sandwich_small_budget(self):
        # even a reduced budget must land in the certified bracket
        result = oracle.brute_force_mu2(1.0, 3.0, N=20, n_seeds=4)
        params = extremal2d.solve_params(1.0, 3.0)
        mu_ext = extremal2d.integrate_extremal(params).mu
        assert mu_ext - 1e-3 <= result.mu_hat <= 1.05 * mu_ext
        assert result.constraint_residual <= oracle.FEAS_TOL
        assert result.seeds_used >= 1

    def test_result_is_replayable(self):
        result = oracle.brute_force_mu2(1.0, 3.0, N=16, n_seeds=3)
        # the returned control and direction reproduce mu_hat through the flow
        replay = flow.cost_J(result.control, result.omega0, T=4.0)
        assert replay == pytest.approx(result.mu_hat, rel=1e-8)
        assert np.linalg.norm(result.omega0) == pytest.approx(1.0, abs=1e-12)

    def test_mu_hat_is_the_closed_form_cost(self):
        # the flow propagates constant segments exactly, so the reported
        # mu_hat equals the optimizer's closed-form recursion at the winner
        result = oracle.brute_force_mu2(1.2, 3.1, N=20, n_seeds=4)
        psis = [0.5 * float(seg.data[0]) for seg in result.control.segments]
        z = np.array([np.arctan2(result.omega0[1], result.omega0[0]), *psis])
        closed = oracle._make_funcs(1.2, 3.1, 20).cost_grad(z)[0]
        assert result.mu_hat == pytest.approx(closed, rel=1e-12)

    def test_control_is_admissible(self):
        result = oracle.brute_force_mu2(1.0, 3.0, N=16, n_seeds=3)
        G = signals.gram(result.control, 0.0, 4.0)
        eigs = np.linalg.eigvalsh(G)
        assert eigs[0] >= 1.0 - oracle.FEAS_TOL
        assert eigs[-1] <= 3.0 + oracle.FEAS_TOL

    def test_deterministic_given_seed(self):
        r1 = oracle.brute_force_mu2(1.0, 3.0, N=12, n_seeds=2, rng_seed=5)
        r2 = oracle.brute_force_mu2(1.0, 3.0, N=12, n_seeds=2, rng_seed=5)
        assert r1.mu_hat == r2.mu_hat

    def test_equal_bounds_boundary(self):
        # feasible set is the measure-zero shell lambda_min = a; the search
        # must still return an admissible near-boundary point
        result = oracle.brute_force_mu2(1.0, 1.0, N=12, n_seeds=3)
        assert result.constraint_residual <= oracle.FEAS_TOL
        assert result.mu_hat <= 1.0 + 1e-6

    def test_upper_envelope_never_beaten(self):
        # no admissible control can contract faster than mu over one window
        result = oracle.brute_force_mu2(0.5, 4.0, N=16, n_seeds=3)
        params = extremal2d.solve_params(0.5, 4.0)
        mu_ext = extremal2d.integrate_extremal(params).mu
        assert result.mu_hat >= mu_ext - 1e-3

    def test_repair_at_a_below_b(self):
        # a seed here ends just outside the admissible set; the last-pair
        # repair brings it back, so all four seeds count
        result = oracle.brute_force_mu2(0.137, 0.2, N=8, n_seeds=4, rng_seed=131)
        assert result.seeds_used == 4
        assert result.constraint_residual <= oracle.FEAS_TOL
        assert result.mu_hat == 0.1367855530313109

    def test_nfev_budget(self):
        # exact counter: a regression in the optimizer shows without timing;
        # derivative-free search needs tens of thousands of evaluations here
        result = oracle.brute_force_mu2(1.0, 3.0, N=20, n_seeds=4)
        assert 0 < result.nfev <= 2000
        assert result.iteration_limited == 0

    def test_equal_bounds_below_a(self):
        # a = b admits controls that contract by less than a per window; the
        # constraint's gradient vanishes at the optimum, so SLSQP stops at its
        # iteration limit, and the result counts those stops
        result = oracle.brute_force_mu2(1.0, 1.0, N=20, n_seeds=4)
        assert result.constraint_residual <= oracle.FEAS_TOL
        assert result.mu_hat < 1.0
        assert result.iteration_limited > 0


def _central_diff(f, z, h=1e-6):
    out = np.empty_like(z)
    for k in range(len(z)):
        e = np.zeros_like(z)
        e[k] = h
        out[k] = (f(z + e) - f(z - e)) / (2.0 * h)
    return out


class TestGradients:
    @pytest.fixture
    def setup(self):
        funcs = oracle._make_funcs(1.0, 3.0, 12)
        z = np.random.default_rng(11).uniform(0.0, 2.0 * np.pi, size=13)
        return funcs, z

    def test_adjoint_matches_finite_differences(self, setup):
        funcs, z = setup
        grad = funcs.cost_grad(z)[1]
        cost = _central_diff(lambda y: funcs.cost_grad(y)[0], z)
        assert np.allclose(grad, cost, rtol=0.0, atol=1e-7)

    def test_constraint_jacobian_matches_finite_differences(self, setup):
        funcs, z = setup
        gap, jac = funcs.constraint["fun"], funcs.constraint["jac"]
        assert np.allclose(jac(z), _central_diff(gap, z), rtol=0.0, atol=1e-7)
