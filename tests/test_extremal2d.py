"""Elliptic kernels, shape/multiplier solves, and the synthesized extremal.

Independent oracles: direct quadrature and 30-digit mpmath for the
complete elliptic integrals, frozen solver outputs for the (1, 3)
pendulum shape (computed once with this code at tight tolerance and
pinned), the flow integrator replaying the synthesized control from
scratch, RK45 on the extremal ODE against the closed-form trajectory,
and a matrix-stack formulation of the extremality certificate.
"""
from __future__ import annotations

import copy
import dataclasses
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from peflow import extremal2d, flow, signals

from controls import matrix_at

# pinned (1, 3) solve at tol 1e-10; guards against silent regressions
FROZEN_13 = {
    "phi0": 1.6428389788961866,
    "nu": 0.775027079457628,
    "alpha": 0.43776196846009274,
    "d": 0.18049473612998645,
    "mu": 0.4819817203199967,
}


def quad_K(x):
    return quad(lambda t: 1.0 / math.sqrt(1.0 - (x * math.sin(t)) ** 2),
                0.0, math.pi / 2, epsabs=1e-13, epsrel=1e-13)[0]


def quad_E(x):
    return quad(lambda t: math.sqrt(1.0 - (x * math.sin(t)) ** 2),
                0.0, math.pi / 2, epsabs=1e-13, epsrel=1e-13)[0]


def agm_gap_stalls(x):
    """Whether the AGM gap of _agm_pair(x) stops shrinking above its 1e-17 stop."""
    a, b, c = 1.0, math.sqrt((1.0 - x) * (1.0 + x)), x
    while abs(c) >= 1e-17:
        a, b, c_next = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        if abs(c_next) >= abs(c):
            return True
        c = c_next
    return False


def reference_multipliers(k, nu, start):
    """(alpha, beta, d) solving alpha + beta = 1, the frequency relation
    2 nu^2 = (beta + d)/(alpha + d) and the turning-angle relation
    k^2 = (1 + cos phi0)/2 = d(1 + d)/((alpha + d)(beta + d)), each scaled to a
    relative residual, by mpmath.findroot at 40 digits.  The unknowns are
    the ratios to start, so all three are of order 1 for the root-find."""
    with mpmath.workdps(40):
        n2, c2 = 2 * mpmath.mpf(nu) ** 2, mpmath.mpf(k) ** 2
        scale = [mpmath.mpf(v) for v in start]

        def relations(*ratios):
            al, be, d = (s * r for s, r in zip(scale, ratios))
            return [al + be - 1, (be + d) / (n2 * (al + d)) - 1,
                    d * (1 + d) / (c2 * (al + d) * (be + d)) - 1]
        ratios = mpmath.findroot(relations, [mpmath.mpf(1)] * 3)
        return [s * r for s, r in zip(scale, ratios)]


def reference_shape(a, b):
    """The modulus k = cos(phi0/2) of K_plus/K_minus = (K - E)/E = a/b, by
    140 bisections in k at 40 digits.  Bisecting in phi0 instead would lose
    k's relative accuracy as phi0 -> pi."""
    with mpmath.workdps(40):
        target = mpmath.mpf(a) / mpmath.mpf(b)
        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        for _ in range(140):
            k = (lo + hi) / 2
            E = mpmath.ellipe(k * k)
            lo, hi = (k, hi) if (mpmath.ellipk(k * k) - E) / E < target else (lo, k)
        return (lo + hi) / 2


def reference_mu(a, b):
    """mu(a, b) solved independently at 40 digits: the shape by reference_shape,
    the multipliers by reference_multipliers, and the cost by quadrature of

        mu = w int_0^1 sqrt(x) dx / sqrt((1 - x)(2 - w x)(delta + w x)),

    w = 2d/(beta + d), delta = 2 alpha/(beta + d)."""
    with mpmath.workdps(40):
        k = reference_shape(a, b)
        nu = mpmath.mpf(b) / (2 * mpmath.sqrt(2) * mpmath.ellipe(k * k))
        params = extremal2d.solve_params(a, b)  # only a start for the root-find
        al, be, d = reference_multipliers(k, nu, (params.alpha, params.beta, params.d))
        w, delta = 2 * d / (be + d), 2 * al / (be + d)

        def integrand(x):
            return mpmath.sqrt(x / ((1 - x) * (2 - w * x) * (delta + w * x)))
        knee = delta / w  # where delta + w x turns from delta to w x
        return float(w * mpmath.quad(integrand, [0, knee, 1] if knee < 1 else [0, 1]))


# the domain's edges: b/a up to 1e8, a from 1e-8 to 1e4, a = b at both scale ends
EDGE_PAIRS = [(1.0, 1e4), (1.0, 1e6), (1.0, 1e8), (1e-6, 1.0), (1e-5, 1e-4),
              (1e-8, 1e-7), (1e3, 1e4), (1e4, 1e4), (1e-8, 1e-8), (1e4, 1e12)]


def extremal_ode(params):
    """The reduced extremal system with the running cost as a fourth component,
    for adaptive_rk45: the reference the closed form is checked against.

    thetadot = sin(theta - phi)
    etadot   = -(sin(theta - phi) + 2 eta cos(theta - phi)) / 2
    phidot   = 2 eta / (beta + d)
    Jdot     = cos^2((theta - phi)/2)
    """
    den = params.beta + params.d

    def f(t, y):
        theta, eta, phi, _ = y
        s, c = math.sin(theta - phi), math.cos(theta - phi)
        return [s, -0.5 * (s + 2.0 * eta * c), 2.0 * eta / den, 0.5 * (1.0 + c)]
    return f


def recast(traj, cls, **extra):
    """traj's fields as an instance of the ExtremalTrajectory subclass cls."""
    return cls(**{f.name: getattr(traj, f.name) for f in dataclasses.fields(traj)}, **extra)


def corrupted(params, **fields):
    """The trajectory of params with fields replaced, bypassing ExtremalParams'
    invariant checks, which reject such a shape."""
    bad = copy.copy(params)
    vars(bad).update(fields)
    return extremal2d.integrate_extremal(bad)


@dataclasses.dataclass(frozen=True)
class ScaledColumns(extremal2d.ExtremalTrajectory):
    """A corrupted trajectory: its (theta, eta, phi) columns times scale, as
    columns and the certificate read them; its rates untouched."""
    scale: float = 1.0

    def _columns(self, jac):
        return super()._columns(jac) * self.scale


@dataclasses.dataclass(frozen=True)
class ShiftedPhi(extremal2d.ExtremalTrajectory):
    """A corrupted trajectory: its phi column plus shift, as columns and the
    certificate read them; theta, eta, the rates and the Jacobi functions
    untouched."""
    shift: float = 0.0

    def _columns(self, jac):
        return super()._columns(jac) + [0.0, 0.0, self.shift]


@dataclasses.dataclass(frozen=True)
class ScaledCost(extremal2d.ExtremalTrajectory):
    """A corrupted trajectory: its cost rate J' times scale, so J too, its
    path untouched."""
    scale: float = 1.0

    def _cost_rate(self, jac):
        return super()._cost_rate(jac) * self.scale


def reference_certificate(traj, params, tol=1e-6):
    """The extremality residuals from (k, 2, 2) matrix stacks, einsum and a
    batched eigvalsh, with one read per column, and the extremal ODE's
    right-hand side from the vectors c, omega and omega_perp: an independent
    formulation of extremal2d.verify_extremal, at its points: the Gram's
    Gauss-Legendre nodes and both ends.  Returns (residuals, passed)."""
    al, d = params.alpha, params.d
    T = params.T
    gl_x, gl_w = np.polynomial.legendre.leggauss(5)
    edges = np.linspace(0.0, T, 513)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halfw = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mids[:, None] + halfw[:, None] * gl_x[None, :]).ravel()
    wq = (halfw[:, None] * gl_w[None, :]).ravel()
    ts = np.concatenate([[0.0], nodes, [T]])
    th, eta, ph = traj.theta(ts), traj.eta(ts), traj.columns(ts)[..., 2]
    half_th = 0.5 * th
    omega = np.stack([np.cos(half_th), np.sin(half_th)], axis=-1)
    operp = np.stack([-np.sin(half_th), np.cos(half_th)], axis=-1)
    half_ph = 0.5 * ph
    c = np.stack([np.cos(half_ph), np.sin(half_ph)], axis=-1)
    p = eta[:, None] * operp
    outer = (omega[:, :, None] * p[:, None, :] + p[:, :, None] * omega[:, None, :]
             + omega[:, :, None] * omega[:, None, :])
    M = np.diag([al, -d])[None, :, :] - outer
    Mc = np.einsum("kij,kj->ki", M, c)
    eigs = np.linalg.eigvalsh(M)
    target = np.sort([al - d - 1.0, 0.0])
    ct_om = np.einsum("ki,ki->k", c, omega)
    phi_dot = 2.0 * eta / (params.beta + d)
    # omegadot = -S omega + (omega^T S omega) omega and the adjoint, on omega_perp
    ct_op = np.einsum("ki,ki->k", c, operp)
    th_rhs = -2.0 * ct_om * ct_op
    rhs = np.stack([th_rhs, eta * (ct_op ** 2 - ct_om ** 2) - 0.5 * th_rhs, phi_dot], axis=-1)
    cq = traj.c(nodes)
    G = np.einsum("k,ki,kj->ij", wq, cq, cq)
    mirror = np.array([1.0, -1.0])
    residuals = {
        "seam": min(float(np.linalg.norm(s * mirror * c[0] - c[-1])) for s in (1.0, -1.0)),
        "transversality": float(max(abs(eta[0]), abs(eta[-1]))),
        "Mc": float(np.max(np.linalg.norm(Mc, axis=1))),
        "spectrum_drift": float(np.max(np.abs(eigs - target[None, :]))),
        "gram": float(np.max(np.abs(G - np.diag([params.a, params.b]))) / (params.a + params.b)),
        "quasi_periodicity": float(np.max(np.abs(omega[-1] ** 2 - omega[0] ** 2))),
        "cost": abs(traj.mu - params.mu) / params.mu,
        "ode": float(np.max(np.abs(traj._rates(traj._jacobi(ts)) - rhs) / (1.0 + np.abs(rhs)))),
    }
    return residuals, all(value < tol for value in residuals.values())


class TestElliptic:
    def test_known_endpoint_values(self):
        assert extremal2d.elliptic_K(0.0) == pytest.approx(math.pi / 2, abs=1e-12)
        assert extremal2d.elliptic_E(0.0) == pytest.approx(math.pi / 2, abs=1e-12)
        assert extremal2d.elliptic_E(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_against_quadrature(self):
        for x in np.arange(0.1, 0.95, 0.1):
            assert extremal2d.elliptic_K(x) == pytest.approx(quad_K(x), abs=1e-10)
            assert extremal2d.elliptic_E(x) == pytest.approx(quad_E(x), abs=1e-10)

    def test_against_mpmath_where_the_gap_stalls(self):
        # x = cos(phi0/2) as _half_periods passes it; on about a quarter of
        # these the AGM gap stalls at half an ulp of 1, and running on would
        # add rounding noise of up to 1e-14 (relative) to E
        xs = [math.cos(0.5 * p) for p in np.linspace(1e-3, math.pi - 1e-3, 400)]
        assert sum(map(agm_gap_stalls, xs)) > 50
        with mpmath.workdps(30):
            for x in xs:
                K, csum = extremal2d._agm_pair(x)
                E = K * (1.0 - csum)
                m = mpmath.mpf(x) ** 2
                assert K == pytest.approx(float(mpmath.ellipk(m)), rel=3e-15, abs=0.0)
                assert E == pytest.approx(float(mpmath.ellipe(m)), rel=3e-15, abs=0.0)

    def test_K_diverges_near_one(self):
        assert extremal2d.elliptic_K(1.0 - 1e-12) > 10.0
        with pytest.raises(ValueError):
            extremal2d.elliptic_K(1.0)

    def test_ratio_strictly_decreasing(self):
        grid = np.linspace(1e-3, math.pi - 1e-6, 100)
        vals = [extremal2d.K_plus(p) / extremal2d.K_minus(p) for p in grid]
        assert all(u > v for u, v in zip(vals, vals[1:]))


class TestShapeSolve:
    def test_frozen_13(self):
        params = extremal2d.solve_params(1.0, 3.0)
        assert params.phi0 == pytest.approx(FROZEN_13["phi0"], rel=1e-9)
        assert params.nu == pytest.approx(FROZEN_13["nu"], rel=1e-9)
        assert params.alpha == pytest.approx(FROZEN_13["alpha"], rel=1e-9)
        assert params.d == pytest.approx(FROZEN_13["d"], rel=1e-9)

    @pytest.mark.parametrize("a,b", [(1.0, 3.0), (1.0, 5.0), (0.5, 4.0),
                                     (1.0, 10.0), (0.2, 0.3)])
    def test_window_bounds_reproduced(self, a, b):
        # the solved shape must reproduce (a, b) through the kernel pair
        params = extremal2d.solve_params(a, b)
        got_a = params.nu * extremal2d.K_plus(params.phi0)
        got_b = params.nu * extremal2d.K_minus(params.phi0)
        assert got_a == pytest.approx(a, rel=1e-8)
        assert got_b == pytest.approx(b, rel=1e-8)
        assert params.T == pytest.approx(a + b, rel=1e-12)

    def test_requires_a_below_b(self):
        # a = b is in the domain (tests/test_cli.py::TestEqualBounds); a > b is not
        with pytest.raises(ValueError):
            extremal2d.solve_shape(3.0, 1.0)

    def test_multiplier_consistency(self):
        params = extremal2d.solve_params(1.0, 3.0)
        # d(alpha) closed form must hold at the solved point
        cot2 = 1.0 / math.tan(params.phi0 / 2) ** 2
        d_expected = 0.5 * (-1.0 + math.sqrt(
            1.0 + 4.0 * cot2 * params.alpha * (1.0 - params.alpha)))
        assert params.d == pytest.approx(d_expected, rel=1e-10)

    def test_newton_needs_few_agm_passes(self, monkeypatch):
        # bracketed Newton on log(K_plus/K_minus) in x = cos(phi0/2); the
        # bisection it replaced made 54-55 passes per solve
        calls = [0]
        original = extremal2d._agm_pair

        def counting(x):
            calls[0] += 1
            return original(x)

        monkeypatch.setattr(extremal2d, "_agm_pair", counting)
        rng = np.random.default_rng(19)
        for log_a, log_ratio in zip(rng.uniform(-8.0, 4.0, 60), rng.uniform(0.0, 8.0, 60)):
            a = 10.0 ** log_a
            calls[0] = 0
            k, nu = extremal2d.solve_shape(a, a * 10.0 ** log_ratio)
            assert calls[0] <= 8
            assert 0.0 < k < 1.0 and nu > 0.0

    def test_initial_conditions_canonical_branch(self):
        # at t = 0 the closed form sits at the turning state eta = 0 with
        # sin^2(theta0/2) = d beta/(alpha + d) and sin theta0 < 0
        for a, b in [(1.0, 3.0), (1.0, 1.0), (1e4, 1e4), (1.0, 1e8)]:
            params, traj = extremal2d.solve_extremal(a, b)
            theta0, eta0, phi0 = traj.columns(0.0)
            al, be, d = params.alpha, params.beta, params.d
            assert math.sin(theta0) < 0
            assert theta0 == pytest.approx(-2.0 * math.asin(math.sqrt(d * be / (al + d))),
                                           rel=1e-9, abs=1e-15)
            assert phi0 == pytest.approx(params.phi0, rel=1e-15)
            assert abs(eta0) < 1e-15 * (1.0 + abs(traj._rates(traj._jacobi(0.0))[1]))


@pytest.fixture(scope="module")
def solved():
    params = extremal2d.solve_params(1.0, 3.0)
    traj = extremal2d.integrate_extremal(params)
    return params, traj


class TestExtremalTrajectory:
    def test_frozen_cost(self, solved):
        _, traj = solved
        assert traj.mu == pytest.approx(FROZEN_13["mu"], rel=1e-9)

    def test_eta_vanishes_at_both_ends(self, solved):
        params, traj = solved
        assert traj.eta(0.0) == pytest.approx(0.0, abs=1e-10)
        assert traj.eta(params.T) == pytest.approx(0.0, abs=1e-8)

    def test_mu_below_a(self, solved):
        _, traj = solved
        assert traj.mu < 1.0

    def test_certificate_residuals(self, solved):
        params, traj = solved
        report = extremal2d.verify_extremal(traj, params)
        assert report.passed
        for key in extremal2d.ExtremalReport.PRIMARY:
            assert report.residuals[key] < 1e-6, key

    def test_certificate_catches_corruption(self, solved):
        # a 0.1% error in nu or phi0 breaks the pendulum's period and shape
        params, _ = solved
        for field, value in (("nu", params.nu * 1.001),
                             ("k", math.cos(0.5 * (params.phi0 * 1.001)))):
            report = extremal2d.verify_extremal(corrupted(params, **{field: value}), params)
            assert not report.passed, field
            assert report.residuals["gram"] > 1e-5, field
        report = extremal2d.verify_extremal(corrupted(params, nu=params.nu * 1.001), params)
        assert report.residuals["ode"] > 1e-4 and report.residuals["Mc"] > 1e-4
        report = extremal2d.verify_extremal(ScaledColumns(params, scale=1.01), params)
        assert not report.passed and report.residuals["ode"] > 1e-3

    def test_certificate_catches_a_phi_only_fault(self, solved):
        # phi shifted by 1e-3 alone: the control axis the certificate checks
        # comes from the phi column, not from the Jacobi functions (-k sn, dn)
        # that still hold the true axis, so seam, Mc and ode all see it
        params, _ = solved
        report = extremal2d.verify_extremal(ShiftedPhi(params, shift=1e-3), params)
        assert not report.passed
        for key in ("seam", "Mc", "ode"):
            assert report.residuals[key] > 1e-4, key

    def test_certificate_checks_the_cost(self):
        # J(T) off the closed-form mu by 1e-5 fails, the path itself
        # untouched; at the wide pairs a miss scaled by sqrt(mu (T - mu))
        # instead of mu would pass
        for a, b in [(1.0, 3.0), (6.321, 6.725e4), (1.0, 1e6)]:
            params, traj = extremal2d.solve_extremal(a, b)
            assert extremal2d.verify_extremal(traj, params).residuals["cost"] < 1e-14
            report = extremal2d.verify_extremal(ScaledCost(params, scale=1.0 + 1e-5), params)
            assert report.residuals["cost"] == pytest.approx(1e-5, rel=1e-6)
            assert not report.passed


class TestClosedFormTrajectory:
    """The Jacobi closed form against independent integrations and over the
    certified domain."""

    @pytest.mark.parametrize("a,b", [(1.0, 3.0), (1.51, 1.7667), (1.0, 1.0), (0.5, 4.0)])
    def test_matches_rk45(self, a, b):
        # RK45 on the extremal ODE from the closed form's t = 0 state, at its nodes
        params, traj = extremal2d.solve_extremal(a, b)
        y0 = [*traj.columns(0.0), 0.0]
        ts, ys, _ = flow.adaptive_rk45(extremal_ode(params), 0.0, params.T, y0, tol=1e-10)
        assert len(ts) > 50
        assert np.max(np.abs(traj.columns(ts) - ys[:, :3])) < 1e-9
        assert np.max(np.abs(traj.cost(ts) - ys[:, 3])) < 1e-9

    @pytest.mark.parametrize("a,b", [(1.0, 3.0), (1e-8, 1e-8), (0.01, 0.03), (1.0, 100.0),
                                     (1.51, 1.7667), (1.0, 1e4), (1e4, 1e5)])
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_cost_matches_quad(self, a, b):
        # J(t) at 40 interior times against adaptive quadrature of J' between
        # consecutive times, cumulated; quad warns that rounding keeps it from
        # certifying its own 1e-14, and the bound below checks the sum instead
        params, traj = extremal2d.solve_extremal(a, b)
        ts = np.linspace(0.0, params.T, 42)[1:-1]
        steps = [quad(lambda s: float(traj._cost_rate(traj._jacobi(s))), lo, hi,
                      epsabs=1e-300, epsrel=1e-14, limit=200)[0]
                 for lo, hi in zip(np.concatenate([[0.0], ts[:-1]]), ts)]
        assert np.max(np.abs(traj.cost(ts) - np.cumsum(steps))) < 1e-14 * traj.mu

    @pytest.mark.parametrize("a,b", [(1.0, 3.0), (1e-8, 1e-8), (1.0, 1e8), (1e4, 1e12)])
    def test_cost_on_its_domain(self, a, b):
        # J(0) is exactly 0, a scalar t gives a scalar, J rises on the CSV's
        # times, and t outside [0, T] raises rather than extrapolating
        params, traj = extremal2d.solve_extremal(a, b)
        assert traj.cost(0.0) == 0.0 and np.shape(traj.cost(0.0)) == ()
        assert np.all(np.diff(traj.cost(np.linspace(0.0, params.T, 2001))) >= 0.0)
        for bad in (-1e-300, np.nextafter(params.T, math.inf), math.nan, [0.0, 2.0 * params.T]):
            with pytest.raises(ValueError, match="cost needs t in"):
                traj.cost(bad)

    @pytest.mark.parametrize("a,b", [(1.0, 3.0), (1e-6, 3e-6), (1.0, 1e8), (1e4, 1e12)])
    def test_node_cost_is_cost_at_the_nodes(self, a, b):
        # the worst input's moments read J at the grid's Gauss-Legendre nodes
        # from the cells' rates; cost(t) reaches the same interpolant by a cell
        # search and polyval (2.0e-14 apart at the first node of (1, 1e8),
        # where J is 5e-27: the bound is on J's own scale)
        params, traj = extremal2d.solve_extremal(a, b)
        nodes = traj._grid[0][1:-1]
        assert np.max(np.abs(traj._node_cost - traj.cost(nodes))) <= 1e-14 * traj.mu

    def test_jacobi_matches_the_untrimmed_descent(self):
        # _jacobi skips the trig of levels whose gap is 0 or below 1e-8 of the
        # mean, where the full step rounds to the same float; on a log grid of
        # the certified domain, which has levels of both kinds, its sn and cn
        # (and so dn) are those of the full descent bit for bit
        trimmed = set()
        for a in np.logspace(-8.0, 4.0, 7):
            for ratio in np.logspace(0.0, 8.0, 9):
                params, traj = extremal2d.solve_extremal(a, a * ratio)
                t = traj._grid[0]
                _, w0, sn, cn, _ = traj._jacobi(t)
                means, gaps, _ = extremal2d._agm(params.k)
                ph = 2.0 ** (len(means) - 1) * (means[-1] * w0 * t - 0.5 * math.pi)
                for mean, gap in zip(means[:0:-1], gaps[:0:-1]):
                    ph = 0.5 * (ph + np.arcsin(gap / mean * np.sin(ph)))
                    trimmed.add("zero" if gap == 0.0 else "tiny" if abs(gap) < 1e-8 * mean
                                else "full")
                assert np.array_equal(sn, np.sin(ph)) and np.array_equal(cn, np.cos(ph)), (a, ratio)
        assert trimmed == {"zero", "tiny", "full"}

    def test_seeded_pairs_certify(self):
        # a log-uniform in [1e-8, 1e4], b/a log-uniform in [1, 1e8]
        rng = np.random.default_rng(21)
        for log_a, log_ratio in zip(rng.uniform(-8.0, 4.0, 300), rng.uniform(0.0, 8.0, 300)):
            a = 10.0 ** log_a
            params, traj = extremal2d.solve_extremal(a, a * 10.0 ** log_ratio)
            report = extremal2d.verify_extremal(traj, params)
            assert report.passed, (a, params.b, report.residuals)
            assert traj.mu == pytest.approx(params.mu, rel=1e-12, abs=0.0), (a, params.b)

    def test_theta_needs_no_unwrap(self):
        # atan2 stays inside (-pi, pi) on [0, T], so theta is continuous
        for a, b in [(1e4, 1e4), (1e-8, 1e-8), (1.0, 1.0), (1.0, 3.0)]:
            params, traj = extremal2d.solve_extremal(a, b)
            theta = traj.theta(np.linspace(0.0, params.T, 20001))
            assert np.max(np.abs(theta)) < 2.5
            assert np.max(np.abs(np.diff(theta))) < 1e-2

    def test_nu_error_on_wide_pairs_fails_the_cost(self):
        # at (1, 1e8) the rates are 1e-8, and a wrong nu moves neither ode
        # nor gram (1.4e-7, scaled by a + b) past the tolerance; the
        # relative cost sees J(T) 0.1% off
        params = extremal2d.solve_params(1.0, 1e8)
        report = extremal2d.verify_extremal(corrupted(params, nu=params.nu * 1.001), params)
        assert report.residuals["ode"] < 1e-6 and report.residuals["gram"] < 1e-6
        assert report.residuals["cost"] == pytest.approx(1e-3, rel=1e-2)
        assert not report.passed


class TestCertificateReference:
    """verify_extremal (component arithmetic, closed-form 2x2 spectrum)
    against reference_certificate (matrix stacks and eigvalsh)."""

    @pytest.mark.parametrize("a,b,scale", [
        (1.0, 3.0, 1.0), (2.5, 40.1, 1.0), (0.5, 0.5, 1.0), (0.001, 0.001, 1.0),
        (0.0001278, 0.001786, 1.0),
        # the corrupted columns of test_certificate_catches_corruption
        pytest.param(1.0, 3.0, 1.01, id="corrupted")])
    def test_residuals_match(self, a, b, scale):
        params, traj = extremal2d.solve_extremal(a, b)
        traj = recast(traj, ScaledColumns, scale=scale)
        report = extremal2d.verify_extremal(traj, params)
        residuals, passed = reference_certificate(traj, params)
        assert report.residuals.keys() == residuals.keys() == set(extremal2d.ExtremalReport.PRIMARY)
        for key, value in residuals.items():
            assert report.residuals[key] == pytest.approx(value, rel=0.0, abs=1e-13), key
        assert report.passed == passed

    def test_single_read_matches_column_accessors(self, solved):
        params, traj = solved
        ts = np.linspace(0.0, params.T, 2001)
        cols = traj.columns(ts)
        for i, column in enumerate((traj.theta, traj.eta)):
            assert np.array_equal(cols[:, i], column(ts))
            assert cols[0, i] == column(0.0) and cols[-1, i] == column(params.T)


class TestClosedFormCost:
    @pytest.mark.parametrize("a,b", [(1.0, 3.0), (1.0, 10.0), (0.5, 4.0)])
    def test_matches_integrated_cost(self, a, b):
        params = extremal2d.solve_params(a, b)
        traj = extremal2d.integrate_extremal(params)
        assert params.mu == pytest.approx(traj.mu, rel=1e-6)

    def test_multipliers_against_findroot(self):
        rng = np.random.default_rng(17)
        for phi0, nu in zip(rng.uniform(0.01, math.pi - 1e-6, 60),
                            10.0 ** rng.uniform(-8.0, 4.0, 60)):
            k = math.cos(0.5 * phi0)
            got = extremal2d.solve_multipliers(k, nu)
            ref = reference_multipliers(k, nu, got)
            for name, g, r in zip(("alpha", "beta", "d"), got, ref):
                assert g == pytest.approx(float(r), rel=1e-14, abs=0.0), (k, nu, name)

    @pytest.mark.parametrize("a,b", EDGE_PAIRS)
    def test_edge_pairs_against_reference(self, a, b):
        mu = extremal2d.mu(a, b)
        assert mu <= a
        ref = reference_mu(a, b)
        assert mu == pytest.approx(ref, rel=1e-14, abs=0.0)
        # the closed-form trajectory certifies, and its quadrature J(T) meets
        # the reference to rounding too: the shape reaches both as k, whose
        # relative precision phi0 = 2 acos(k) would lose as phi0 -> pi
        params, traj = extremal2d.solve_extremal(a, b)
        assert extremal2d.verify_extremal(traj, params).passed
        assert traj.mu == pytest.approx(mu, rel=1e-14, abs=0.0)
        assert traj.mu == pytest.approx(ref, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("a,b", EDGE_PAIRS)
    def test_shape_against_reference(self, a, b):
        # solve_shape's Newton in k lands within a few ulps of the bisection root
        k, _ = extremal2d.solve_shape(a, b)
        assert k == pytest.approx(float(reference_shape(a, b)), rel=1e-14, abs=0.0)

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(log_a=st.floats(-8.0, 4.0), log_ratio=st.floats(0.0, 8.0))
    def test_sweep_against_reference(self, log_a, log_ratio):
        a = 10.0 ** log_a
        b = a * 10.0 ** log_ratio
        mu = extremal2d.mu(a, b)
        assert mu <= a
        assert mu == pytest.approx(reference_mu(a, b), rel=1e-14, abs=0.0)


class TestBuildOptimalControl:
    def test_full_signal_properties(self):
        a, b = 1.0, 3.0
        sig, om0, mu = extremal2d.build_optimal_control(a, b)
        assert sig.period == pytest.approx(2 * (a + b), rel=1e-12)
        assert np.linalg.norm(om0) == pytest.approx(1.0, abs=1e-10)
        # window Gram is exactly the (a, b) box, up to quadrature error
        eigs = np.linalg.eigvalsh(signals.gram(sig, 0.0, a + b))
        assert eigs[0] == pytest.approx(a, abs=1e-6 * (a + b))
        assert eigs[-1] == pytest.approx(b, abs=1e-6 * (a + b))
        # replaying the control through the flow reproduces mu
        assert flow.cost_J(sig, om0, T=a + b) == pytest.approx(mu, rel=1e-6)

    def test_contraction_doubles_over_full_period(self):
        a, b = 1.0, 3.0
        sig, om0, mu = extremal2d.build_optimal_control(a, b)
        assert flow.cost_J(sig, om0, T=2 * (a + b)) == pytest.approx(2 * mu, rel=1e-6)

    def test_equal_bounds_is_a_pendulum_extremal(self):
        # a = b is synthesized like any a < b: the 2T-periodic reflected
        # extremal with Gram I over a window and cost mu(1, 1) = 0.93355,
        # below the axis-hopping cost 1 (oracle mu_hat 0.93370, N = 40)
        sig, om0, mu = extremal2d.build_optimal_control(1.0, 1.0)
        assert mu == pytest.approx(0.9335519271, rel=1e-9)
        assert sig.period == pytest.approx(4.0, rel=1e-12)
        eigs = np.linalg.eigvalsh(signals.gram(sig, 0.0, 2.0))
        assert eigs == pytest.approx([1.0, 1.0], abs=1e-6)
        assert flow.cost_J(sig, om0, T=2.0) == pytest.approx(mu, rel=1e-6)

    @pytest.mark.parametrize("a,b", [(1.0, 3.0), (1.0, 1.0), (1e-8, 1e-8), (1e4, 1e12)])
    def test_saved_control_reloads_bit_for_bit(self, a, b):
        # the saved samples are the segment's own floats, and a reloaded
        # segment solves the same cubic from them, so it reads the control
        # bit for bit at every time
        sig, _, _ = extremal2d.build_optimal_control(a, b)
        back = signals.signal_from_dict(json.loads(json.dumps(signals.signal_to_dict(sig))))
        ts = np.linspace(0.0, sig.period, 1001)
        assert all(np.array_equal(matrix_at(back, t), matrix_at(sig, t)) for t in ts)

    def test_halved_bounds_frozen(self):
        # mu is not homogeneous in (a, b); pin the halved pair used by the
        # gain construction so the two modules stay consistent
        _, _, mu_half = extremal2d.build_optimal_control(0.5, 1.5)
        assert mu_half == pytest.approx(0.41062340021764465, rel=1e-9)
