"""Synthesis of the planar worst-case rank-one control.

The optimal control S = cc^T in dimension 2 is parametrized by angles:
omega = (cos(theta/2), sin(theta/2)) for the state, c = (cos(phi/2),
sin(phi/2)) for the control axis, with the adjoint reduced to a single
scalar eta via p = eta * omega_perp.  Along an extremal the angle phi
obeys a pendulum equation whose half-periods are complete elliptic
integrals, which turns synthesis into two scalar root-finding problems:

  1. solve_shape:       K_plus(phi0)/K_minus(phi0) = a/b   ->  (phi0, nu)
  2. solve_multipliers: nu(alpha, d(alpha)) = nu            ->  (alpha, d)

after which the extremal dynamics are integrated on [0, T=a+b] and
extended to a 2T-periodic signal by the fixed mirror D = diag(1, -1): the
canonical branch of initial_conditions (sin theta0 < 0, phi running from
phi0 to 2 pi - phi0) makes the control on [T, 2T] equal to D c(t - T) up
to sign, which on angles is phi -> 2 pi - phi.  All maps involved are
strictly monotone, so plain bisection is exact to machine precision.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
from numpy.typing import NDArray
from scipy.interpolate import CubicSpline

from .flow import adaptive_rk45
from .signals import RankOneSignal, Segment

__all__ = [
    "ExtremalParams",
    "ExtremalTrajectory",
    "ExtremalReport",
    "elliptic_K",
    "elliptic_E",
    "K_plus",
    "K_minus",
    "solve_shape",
    "solve_multipliers",
    "solve_params",
    "initial_conditions",
    "integrate_extremal",
    "solve_extremal",
    "mu",
    "build_optimal_control",
    "cost_closed_form",
    "verify_extremal",
]

_GL5 = np.polynomial.legendre.leggauss(5)

_TOL = 1e-10  # RK45 tolerance of every extremal integration
_SAMPLES = 2048  # angle samples of the synthesized half-period control
_CHECK_SAMPLES = 2001  # sample times of the extremality certificate


def _agm_pair(x: float) -> tuple[float, float]:
    # AGM iteration for K(x) with the companion sum for E(x).  Rounding can
    # stall the gap c at half an ulp of 1 (~5.5e-17), above the 1e-17 stop;
    # each stalled pass would add 2^n c^2 of noise to csum, so the loop also
    # stops once |c| no longer shrinks.  The 60-pass cap is only a guard.
    a, b, c = 1.0, math.sqrt((1.0 - x) * (1.0 + x)), x
    csum = 0.5 * c * c
    pow2 = 1.0
    for _ in range(60):
        if abs(c) < 1e-17:
            break
        a, b, c, c_prev = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b), c
        pow2 *= 2.0
        csum += 0.5 * pow2 * c * c
        if abs(c) >= abs(c_prev):
            break
    K = math.pi / (2.0 * a)
    return K, K * (1.0 - csum)


def elliptic_K(x: float) -> float:
    """Complete elliptic integral of the first kind, modulus convention."""
    x = float(x)
    if not 0.0 <= x < 1.0:
        raise ValueError(f"elliptic_K needs x in [0, 1), got {x}")
    return _agm_pair(x)[0]


def elliptic_E(x: float) -> float:
    """Complete elliptic integral of the second kind, modulus convention."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"elliptic_E needs x in [0, 1], got {x}")
    if x == 1.0:
        return 1.0
    return _agm_pair(x)[1]


def _half_periods(phi0: float) -> tuple[float, float]:
    """(K_plus(phi0), K_minus(phi0)) from one AGM pass."""
    if not 0.0 < phi0 < np.pi:
        raise ValueError("phi0 must lie in (0, pi)")
    K, E = _agm_pair(float(np.cos(phi0 / 2)))
    return 2.0 * math.sqrt(2.0) * (K - E), 2.0 * math.sqrt(2.0) * E


def K_plus(phi0: float) -> float:
    """Pendulum half-period integral 2*sqrt(2)*(K(cos(phi0/2)) - E(cos(phi0/2)))."""
    return _half_periods(phi0)[0]


def K_minus(phi0: float) -> float:
    """Companion integral 2*sqrt(2)*E(cos(phi0/2))."""
    return _half_periods(phi0)[1]


@dataclass(frozen=True)
class ExtremalParams:
    """Synthesis parameters for the planar extremal with one oscillation arc.

    Invariants enforced at construction: T = a + b, the pendulum frequency
    relation nu = sqrt((1-alpha+d)/(2(alpha+d))), the half-period equations
    a = nu*K_plus(phi0) and b = nu*K_minus(phi0), and the
    turning-angle relation cos phi0 = -1 + 2d(1+d)/((alpha+d)(1-alpha+d)).
    """

    a: float
    b: float
    T: float
    alpha: float
    d: float
    nu: float
    phi0: float

    def __post_init__(self) -> None:
        if abs(self.T - (self.a + self.b)) > 1e-12 * (self.a + self.b):
            raise ValueError("T must equal a + b")
        if not (0.0 < self.alpha < 1.0 and self.d > 0.0):
            raise ValueError("need alpha in (0,1) and d > 0")
        nu_chk = np.sqrt((1 - self.alpha + self.d) / (2 * (self.alpha + self.d)))
        if abs(nu_chk - self.nu) > 1e-10 * max(1.0, self.nu):
            raise ValueError(f"nu inconsistent with (alpha, d): {self.nu} vs {nu_chk}")
        cos_chk = -1 + 2 * self.d * (1 + self.d) / (
            (self.alpha + self.d) * (1 - self.alpha + self.d))
        if abs(cos_chk - np.cos(self.phi0)) > 1e-10:
            raise ValueError("phi0 inconsistent with (alpha, d)")
        k_plus, k_minus = _half_periods(self.phi0)
        a_chk, b_chk = self.nu * k_plus, self.nu * k_minus
        if abs(a_chk - self.a) > 1e-8 * self.a or abs(b_chk - self.b) > 1e-8 * self.b:
            raise ValueError(f"(a, b) inconsistent with (nu, phi0): "
                             f"got ({a_chk}, {b_chk}) vs ({self.a}, {self.b})")


def solve_shape(a: float, b: float) -> tuple[float, float]:
    """Solve K_plus(phi0)/K_minus(phi0) = a/b for phi0, then nu = b/K_minus.

    The ratio decreases strictly from +inf (phi0 -> 0) to 0 (phi0 -> pi),
    so bisection is exact on all of 0 < a <= b; a = b is the interior
    point phi0 = 0.8603.
    """
    if not 0.0 < a <= b:
        raise ValueError(f"solve_shape needs 0 < a <= b, got ({a}, {b})")
    target = a / b

    def ratio(phi0: float) -> float:
        k_plus, k_minus = _half_periods(phi0)
        return k_plus / k_minus

    lo, hi = 1e-3, np.pi - 1e-9
    while ratio(lo) <= target:
        lo *= 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if ratio(mid) > target:
            lo = mid
        else:
            hi = mid
    phi0 = 0.5 * (lo + hi)
    k_plus, k_minus = _half_periods(phi0)
    nu = b / k_minus
    if abs(nu * k_plus - a) > 1e-10 * a:
        raise ArithmeticError(f"shape solve residual too large for (a, b)=({a}, {b})")
    return float(phi0), float(nu)


def _d_of_alpha(alpha: float, cot2: float) -> float:
    return 0.5 * (-1.0 + math.sqrt(1.0 + 4.0 * cot2 * alpha * (1.0 - alpha)))


def solve_multipliers(phi0: float, nu: float) -> tuple[float, float]:
    """Recover the multipliers (alpha, d) from (phi0, nu).

    The turning-angle relation pins d as a function of alpha through
    d(alpha) = (-1 + sqrt(1 + 4 cot^2(phi0/2) alpha(1-alpha)))/2, and
    nu(alpha, d(alpha)) decreases strictly from +inf to 0, so bisection
    on alpha is exact.
    """
    if not 0.0 < phi0 < np.pi:
        raise ValueError("phi0 must lie in (0, pi)")
    if nu <= 0:
        raise ValueError("nu must be positive")
    half = phi0 / 2
    cot2 = float((np.cos(half) / np.sin(half)) ** 2)

    def nu_of(alpha: float) -> float:
        d = _d_of_alpha(alpha, cot2)
        return math.sqrt((1.0 - alpha + d) / (2.0 * (alpha + d)))

    lo, hi = 1e-15, 1.0 - 1e-15
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if nu_of(mid) > nu:
            lo = mid
        else:
            hi = mid
    alpha = 0.5 * (lo + hi)
    d = _d_of_alpha(alpha, cot2)
    cos_chk = -1.0 + 2.0 * d * (1.0 + d) / ((alpha + d) * (1.0 - alpha + d))
    if abs(cos_chk - np.cos(phi0)) > 1e-10:
        raise ArithmeticError("multiplier solve failed the turning-angle residual")
    if abs(nu_of(alpha) - nu) > 1e-10 * max(1.0, nu):
        raise ArithmeticError("multiplier solve failed the frequency residual")
    return float(alpha), float(d)


def solve_params(a: float, b: float) -> ExtremalParams:
    """Full parameter solve (a, b) -> ExtremalParams."""
    phi0, nu = solve_shape(a, b)
    alpha, d = solve_multipliers(phi0, nu)
    return ExtremalParams(a=a, b=b, T=a + b, alpha=alpha, d=d, nu=nu, phi0=phi0)


def initial_conditions(alpha: float, d: float) -> tuple[float, float]:
    """Angles (theta0, phi0) at a turning time, where eta = 0, from (alpha, d).

    cos theta0 = 1 - 2d(1-alpha)/(alpha+d) with sin theta0 < 0 (the mirror
    solution is canonicalized away), and phi0 in (0, pi) so that
    sin theta0 * sin phi0 < 0.
    """
    if not (0.0 < alpha < 1.0 and d > 0.0):
        raise ValueError("need alpha in (0,1) and d > 0")
    ct = 1.0 - 2.0 * d * (1.0 - alpha) / (alpha + d)
    cp = -1.0 + 2.0 * d * (1.0 + d) / ((alpha + d) * (1.0 - alpha + d))
    for name, val in (("cos theta0", ct), ("cos phi0", cp)):
        if abs(val) > 1.0 + 1e-12:
            raise ValueError(f"{name} = {val} outside [-1, 1] beyond roundoff")
    ct = min(1.0, max(-1.0, ct))
    cp = min(1.0, max(-1.0, cp))
    theta0 = -np.arccos(ct)
    phi0 = np.arccos(cp)
    return float(theta0), float(phi0)


@dataclass(frozen=True)
class ExtremalTrajectory:
    """Integrated extremal (theta, eta, phi) with the running cost J.

    states has one row (theta, eta, phi) per accepted step; cost holds the
    accumulated int cos^2((theta-phi)/2) dt.
    """

    ts: NDArray[np.float64]
    states: NDArray[np.float64]
    cost: NDArray[np.float64]

    @cached_property
    def _spline(self) -> CubicSpline:
        return CubicSpline(self.ts, np.column_stack([self.states, self.cost]), axis=0)

    def columns(self, t) -> NDArray[np.float64]:
        """(theta, eta, phi, cost) at t from one spline read, shape (..., 4)."""
        return self._spline(t)

    def theta(self, t):
        return self.columns(t)[..., 0]

    def eta(self, t):
        return self.columns(t)[..., 1]

    def phi(self, t):
        return self.columns(t)[..., 2]

    def cost_at(self, t):
        return self.columns(t)[..., 3]

    def omega(self, t) -> NDArray[np.float64]:
        half = 0.5 * self.theta(t)
        return np.stack([np.cos(half), np.sin(half)], axis=-1)

    def c(self, t) -> NDArray[np.float64]:
        half = 0.5 * self.phi(t)
        return np.stack([np.cos(half), np.sin(half)], axis=-1)

    @property
    def mu(self) -> float:
        """Total cost over the integrated span."""
        return float(self.cost[-1])


def integrate_extremal(params: ExtremalParams) -> ExtremalTrajectory:
    """Integrate the reduced extremal system on [0, T].

    thetadot = sin(theta - phi)
    etadot   = -(sin(theta - phi) + 2 eta cos(theta - phi)) / 2
    phidot   = 2 eta / (1 - alpha + d)

    started at the turning state of initial_conditions, with the running
    cost accumulated as a fourth component.  eta(T) must return to zero;
    a large residual signals inconsistent parameters and raises.
    """
    den = 1.0 - params.alpha + params.d
    theta0, phi0 = initial_conditions(params.alpha, params.d)
    y0 = [theta0, 0.0, phi0, 0.0]

    def f(t, y):
        theta, eta, phi, _ = y
        s, c = math.sin(theta - phi), math.cos(theta - phi)
        return [s, -0.5 * (s + 2.0 * eta * c), 2.0 * eta / den, 0.5 * (1.0 + c)]

    ts, ys, _ = adaptive_rk45(f, 0.0, params.T, y0, tol=_TOL)
    eta_T = abs(float(ys[-1, 1]))
    if eta_T > 100.0 * _TOL:
        raise ArithmeticError(f"eta(T) = {eta_T:.3e} does not vanish; "
                              "parameters are inconsistent with the boundary conditions")
    return ExtremalTrajectory(ts, ys[:, :3], ys[:, 3])


def solve_extremal(a: float, b: float) -> tuple[ExtremalParams, ExtremalTrajectory]:
    """Solve and integrate the pendulum extremal for window bounds 0 < a <= b."""
    params = solve_params(a, b)
    return params, integrate_extremal(params)


def mu(a: float, b: float) -> float:
    """Optimal per-window contraction mu(a, b) in the plane, 0 < a <= b."""
    return solve_extremal(a, b)[1].mu


def build_optimal_control(a: float, b: float) -> tuple[RankOneSignal, NDArray, float]:
    """Synthesize the 2T-periodic worst-case control for window bounds 0 < a <= b.

    Segment 1 holds the extremal's angles phi on [0, T]; segment 2 holds
    their image 2 pi - phi under the fixed mirror D = diag(1, -1) on
    [T, 2T].  The seam is continuous iff phi(0) + phi(T) = 2 pi; a miss
    above 2e-6 (1e-6 on c) raises ArithmeticError.

    Returns (signal, omega0, mu): the rank-one angle signal with period 2T,
    the worst initial direction, and the per-window cost mu = J over [0, T].
    """
    params, traj = solve_extremal(a, b)
    T = params.T
    phis = traj.phi(np.linspace(0.0, T, _SAMPLES))
    seam = abs(float(phis[0] + phis[-1]) - 2.0 * np.pi)
    if seam > 2e-6:
        raise ArithmeticError(f"seam mismatch: |phi(0) + phi(T) - 2 pi| = {seam:.2e}")
    segs = (Segment(0.0, T, phis), Segment(T, 2 * T, 2.0 * np.pi - phis))
    return RankOneSignal(segs, dim=2, period=2 * T), traj.omega(0.0), traj.mu


@cache
def _gauss_legendre_200() -> tuple[NDArray, NDArray]:
    """The 200-node rule of cost_closed_form, built on first use (it takes ~50 ms)."""
    return np.polynomial.legendre.leggauss(200)


def cost_closed_form(alpha: float, d: float) -> float:
    """Extremal cost as a one-dimensional quadrature in the angle eps = theta - phi - pi.

    J = 2 * int_0^{eps_bar} sin^2(eps/2) deps
            / sqrt(2 mu_bar (cos eps - cos eps_bar) - cos^2 eps + cos^2 eps_bar)

    with mu_bar = 1/(1-alpha+d) and cos eps_bar = 1 - 2d/(1-alpha+d).  The
    endpoint singularity is removed by eps = eps_bar * sin(psi) before
    Gauss-Legendre quadrature.  Only turning angles eps_bar in (0, pi/2)
    are accepted.
    """
    if not (0.0 < alpha < 1.0 and d > 0.0):
        raise ValueError("need alpha in (0,1) and d > 0")
    mu_bar = 1.0 / (1.0 - alpha + d)
    cos_eb = 1.0 - 2.0 * d / (1.0 - alpha + d)
    if not 0.0 < cos_eb < 1.0:
        raise ValueError(f"turning angle outside (0, pi/2): cos eps_bar = {cos_eb}")
    eps_bar = np.arccos(cos_eb)

    x, w = _gauss_legendre_200()
    psi = 0.25 * np.pi * (x + 1.0)
    wpsi = 0.25 * np.pi * w
    eps = eps_bar * np.sin(psi)
    arg = 2.0 * mu_bar * (np.cos(eps) - cos_eb) - np.cos(eps) ** 2 + cos_eb ** 2
    arg = np.maximum(arg, 1e-300)
    integrand = np.sin(eps / 2.0) ** 2 * (eps_bar * np.cos(psi)) / np.sqrt(arg)
    return float(2.0 * np.dot(wpsi, integrand))


@dataclass(frozen=True)
class ExtremalReport:
    """Named extremality residuals with the measured cost.

    passed reflects the six primary residuals (seam, transversality, Mc,
    spectrum_drift, gram, quasi_periodicity); further diagnostics (adjoint,
    trace, hamiltonian, nsd_violation, pendulum_energy) are included in
    residuals but carry the same tolerance.
    """

    residuals: dict[str, float]
    mu: float
    passed: bool

    PRIMARY = ("seam", "transversality", "Mc", "spectrum_drift", "gram",
               "quasi_periodicity")


def verify_extremal(traj: ExtremalTrajectory, params: ExtremalParams,
                    tol: float = 1e-6) -> ExtremalReport:
    """Check the full set of extremality conditions along a trajectory.

    At sampled times the matrix M = diag(alpha, -d) - (omega p^T + p omega^T
    + omega omega^T) must kill the control axis (Mc = 0), stay negative
    semi-definite with constant spectrum {alpha-d-1, 0}, and the scalar
    adjoint must satisfy pdot = Sp - (omega^T S omega) p - omegadot with
    p(0) = p(T) = 0.  The Gram over [0, T] must equal diag(a, b), and the
    seam needs c(T) = +-D c(0) for the fixed mirror D = diag(1, -1).

    M is carried as its entries M11, M12, M22, and its spectrum is computed
    in closed form: (M11 + M22)/2 -+ hypot((M11 - M22)/2, M12).
    """
    al, d = params.alpha, params.d
    T = params.T
    th, eta, ph, _ = traj.columns(np.linspace(0.0, T, _CHECK_SAMPLES)).T
    co, so = np.cos(0.5 * th), np.sin(0.5 * th)  # omega; omega_perp = (-so, co)
    cc, sc = np.cos(0.5 * ph), np.sin(0.5 * ph)  # c

    # M = diag(alpha, -d) - (omega p^T + p omega^T + omega omega^T), p = eta omega_perp
    cs2 = 2.0 * co * so
    M11 = al + eta * cs2 - co * co
    M12 = -eta * (co * co - so * so) - co * so
    M22 = -d - eta * cs2 - so * so
    Mc1, Mc2 = M11 * cc + M12 * sc, M12 * cc + M22 * sc
    mid, rad = 0.5 * (M11 + M22), np.hypot(0.5 * (M11 - M22), M12)
    eig_lo, eig_hi = mid - rad, mid + rad  # closed-form spectrum of the symmetric 2x2 M

    # adjoint residual pdot - (c c^T p - (c^T omega)^2 p - omegadot) from the exact
    # derivatives omegadot = thdot/2 omega_perp, pdot = etadot omega_perp - eta thdot/2 omega
    # (no numerical differencing); it is k_perp omega_perp + k_om omega - (c^T p) c
    delta = th - ph
    th_dot = np.sin(delta)
    eta_dot = -0.5 * (th_dot + 2.0 * eta * np.cos(delta))
    ct_om = cc * co + sc * so
    ct_p = eta * (sc * co - cc * so)
    k_perp = eta_dot + 0.5 * th_dot + ct_om * ct_om * eta
    k_om = -0.5 * eta * th_dot
    adjoint = np.hypot(-k_perp * so + k_om * co - ct_p * cc, k_perp * co + k_om * so - ct_p * sc)
    energy = params.nu ** 2 * (2.0 * eta / (1.0 - al + d)) ** 2 + np.cos(ph)

    # Gram of c over [0, T] by composite Gauss-Legendre on the spline
    edges = np.linspace(0.0, T, 513)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halfw = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mids[:, None] + halfw[:, None] * _GL5[0][None, :]).ravel()
    wq = (halfw[:, None] * _GL5[1][None, :]).ravel()
    half_q = 0.5 * traj.columns(nodes)[:, 2]
    cq = np.column_stack([np.cos(half_q), np.sin(half_q)])
    G = (cq.T * wq) @ cq

    # |s D c(0) - c(T)| for D = diag(1, -1) and either sign s
    seam = min(math.hypot(cc[0] - s * cc[-1], sc[0] + s * sc[-1]) for s in (1.0, -1.0))
    residuals = {
        "seam": seam,
        "transversality": float(max(abs(eta[0]), abs(eta[-1]))),
        "Mc": float(np.max(np.hypot(Mc1, Mc2))),
        "spectrum_drift": float(max(np.max(np.abs(eig_lo - (al - d - 1.0))),
                                    np.max(np.abs(eig_hi)))),
        "gram": float(np.max(np.abs(G - np.diag([params.a, params.b]))) / (params.a + params.b)),
        "quasi_periodicity": float(max(abs(co[-1] ** 2 - co[0] ** 2),
                                       abs(so[-1] ** 2 - so[0] ** 2))),
        "adjoint": float(np.max(adjoint)),
        "trace": float(np.max(np.abs(M11 + M22 - (al - d - 1.0)))),
        "hamiltonian": float(np.max(np.abs(0.5 * (cc * Mc1 + sc * Mc2)))),
        "nsd_violation": float(max(np.max(eig_hi), 0.0)),
        "pendulum_energy": float(np.max(np.abs(energy - np.cos(params.phi0)))),
    }
    passed = all(residuals[k] < tol for k in ExtremalReport.PRIMARY)
    return ExtremalReport(residuals=residuals, mu=traj.mu, passed=passed)
