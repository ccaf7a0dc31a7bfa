"""L2-gain bounds and worst-input construction for xdot = -cc^T x + u.

For a rank-one persistently excited control with window bounds (a, b) and
window length T, the finite L2-gain gamma(a, b, T) of the perturbed flow
is sandwiched by

    T / (2 mu(a/2, b/2))  <=  gamma  <=  T / (1 - exp(-mu(a, b)))

with mu the optimal-control value of the unperturbed problem.  The lower
bound is achieved in the limit by a resonant periodic input built on the
(a/2, b/2) extremal: u pumps the slow monodromy eigendirection at exactly
the rate the flow contracts it, so the response grows to a periodic
steady state and the input-output ratio climbs toward its supremum.

The ratio over k periods needs no long simulation.  The input rides the
flow of the slow eigenvector, u(t) = v(xi) m(xi) with m(xi) = Phi(xi, 0)
omega_star and xi = t mod P, so by Duhamel's formula the response on
period j is x = (e^{kappa xi} - rho_hat^j) m(xi), and after the input stops
it decays by rho_hat per period.  With I_j = int_0^P e^{j kappa xi} |m|^2
over one period,

    int |x|^2 = k I2 - 2 I1 (1 - rho^k)/(1 - rho)
                + I0 ((1 - rho^{2k}) + (1 - rho^k)^2)/(1 - rho^2),
    int |u|^2 = k kappa^2 I2,

whose ratio rises with k to 1/kappa, the lower bound.  The one period
of m that worst_input integrates therefore gives the ratio at every
horizon.  simulate_gain stays as the independent check and the source of
the (t, |x|, |u|) trace.

Everything runs on the extremal's own (trace-one) clock, where the plant
really is xdot = -cc^T x + u with unit c; the bridge to the T-window
statement is the exact dilation identity
ratio_normalized = ratio_natural / T_half followed by the homogeneity
scaling gamma(a, b, T) = T * gamma(a, b, 1).
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from numpy.typing import NDArray
from scipy.interpolate import CubicSpline

from .extremal2d import build_optimal_control, mu as window_mu
from .flow import propagate
from .signals import RankOneSignal

__all__ = [
    "CONVERGENCE_TOL",
    "GainReport",
    "WorstInput",
    "gain_upper",
    "gain_lower",
    "worst_input",
    "simulate_gain",
    "gain_estimate",
]

_TAIL_PERIODS = 20  # cap on the input-free decay tail of simulate_gain
_GL8 = np.polynomial.legendre.leggauss(8)
CONVERGENCE_TOL = 0.02  # the k-period ratio must reach lower / (1 + this)


def _spline_at(spline: CubicSpline) -> Callable[[float], list[float]]:
    """Evaluator of spline at one scalar time: its components, flattened, as floats.

    It picks the interval and sums the powers as scipy's PPoly does (the
    last knot at or before t, clamped to the knots), so it returns the same
    bits as CubicSpline.__call__ without its per-call overhead.
    """
    knots = spline.x.tolist()
    last = len(knots) - 2
    coef = spline.c.reshape(4, last + 1, -1).transpose(1, 2, 0)  # a view: (interval, component, power)

    def at(t: float) -> list[float]:
        i = bisect_right(knots, t) - 1
        if i < 0:
            i = 0
        elif i > last:
            i = last
        s = t - knots[i]
        s2 = s * s
        s3 = s2 * s
        return [((c3 + c2 * s) + c1 * s2) + c0 * s3 for c0, c1, c2, c3 in coef[i].tolist()]
    return at


@dataclass(frozen=True)
class GainReport:
    """Two-sided gain bounds with the worst input's k-period ratio.

    `simulated` is the exact L2 input-output ratio of the resonant input
    over `horizon_periods` periods plus the full decay tail, from the
    closed form on one period.  It rises with the horizon to `lower`, so
    simulated <= upper outright, and the sandwich certifies once
    lower <= simulated * (1 + CONVERGENCE_TOL); `horizon_needed` is the
    smallest horizon at which it does.
    """

    lower: float
    upper: float
    simulated: float
    mu: float
    params: tuple[float, float, int, float]
    horizon_periods: int
    horizon_needed: int
    mu_half: float


def gain_upper(mu: float, T: float) -> float:
    """Upper gain bound T / (1 - e^{-mu})."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    if T <= 0:
        raise ValueError("T must be positive")
    return T / (1.0 - np.exp(-mu))


def gain_lower(mu_half: float, T: float) -> float:
    """Lower gain bound T / (2 mu(a/2, b/2))."""
    if mu_half <= 0:
        raise ValueError("mu_half must be positive")
    if T <= 0:
        raise ValueError("T must be positive")
    return T / (2.0 * mu_half)


@dataclass(frozen=True)
class WorstInput:
    """Resonant periodic input u(t) = v(xi_t) * Phi(xi_t, 0) omega_star.

    xi_t = t mod period; v(xi) = kappa * e^{kappa xi} with kappa chosen so
    one period of growth exactly cancels the monodromy contraction
    rho_hat = e^{-2 mu} (at the period-2 normalization kappa = mu and
    v(t) = mu e^{mu t}).  u is continuous and periodic because
    v(P) Phi(P,0) omega_star = kappa e^{2mu} rho_hat omega_star =
    v(0) omega_star.
    """

    period: float
    mu: float
    kappa: float
    rho_hat: float
    omega_star: NDArray[np.float64]
    _m_ts: NDArray[np.float64]
    _m_ys: NDArray[np.float64]

    @cached_property
    def _m_spline(self) -> CubicSpline:
        return CubicSpline(self._m_ts, self._m_ys, axis=0)

    @cached_property
    def _m_at(self):
        return _spline_at(self._m_spline)

    def m(self, xi: float | NDArray) -> NDArray[np.float64]:
        """Flow of omega_star over one period: Phi(xi, 0) omega_star."""
        return np.array(self._m_at(xi)) if isinstance(xi, float) else self._m_spline(xi)

    def v(self, xi: float) -> float:
        return self.kappa * np.exp(self.kappa * xi)

    def V(self, s: float) -> float:
        """Antiderivative of v with V(0) = 0."""
        return np.exp(self.kappa * s) - 1.0

    @property
    def closure_residual(self) -> float:
        """|rho_hat/(1-rho_hat) * V(period) - 1|; zero identically in exact arithmetic."""
        return abs(self.rho_hat / (1.0 - self.rho_hat) * self.V(self.period) - 1.0)

    @cached_property
    def moments(self) -> tuple[float, float, float]:
        """(I0, I1, I2), I_j = int_0^P e^{j kappa xi} |m(xi)|^2 dxi.

        An 8-point Gauss-Legendre rule on each accepted step of the
        one-period solve, with m read from its spline in one call.
        """
        half = 0.5 * np.diff(self._m_ts)[:, None]
        nodes = (self._m_ts[:-1, None] + half * (1.0 + _GL8[0])).ravel()
        weights = (half * _GL8[1]).ravel()
        m = self.m(nodes)
        wm2 = weights * np.einsum("ij,ij->i", m, m)
        e = np.exp(self.kappa * nodes)
        I0, I1, I2 = float(wm2.sum()), float(wm2 @ e), float(wm2 @ (e * e))
        if not (np.isfinite([I0, I1, I2]).all() and I2 > 0.0):
            raise ArithmeticError(f"bad one-period moments {(I0, I1, I2)}")
        return I0, I1, I2

    def ratio(self, k_periods: int) -> float:
        """||x||_2 / ||u||_2 of this input applied for k_periods periods from
        x = 0, the decay tail included: what simulate_gain measures, exactly."""
        I0, I1, I2 = self.moments
        r = self.rho_hat
        rk = r ** k_periods
        Ix = (k_periods * I2 - 2.0 * I1 * (1.0 - rk) / (1.0 - r)
              + I0 * ((1.0 - rk * rk) + (1.0 - rk) ** 2) / (1.0 - r * r))
        Iu = k_periods * self.kappa ** 2 * I2
        return float(np.sqrt(Ix / Iu))

    def __call__(self, t: float | NDArray) -> NDArray[np.float64]:
        """u(t), shape (n,) at one time and (len(t), n) at an array of times."""
        xi = t % self.period
        return (self.v(xi) * self.m(xi).T).T


def worst_input(c_star: RankOneSignal, omega_star: NDArray, mu: float) -> WorstInput:
    """Build the gain-saturating input for a periodic extremal control.

    omega_star must be the slow eigenvector of the period map (for the
    synthesized extremal this is its initial condition omega0); this is
    verified against the integrated monodromy action before returning.
    """
    if c_star.period is None:
        raise ValueError("worst_input needs a periodic control")
    if mu <= 0:
        raise ValueError("mu must be positive")
    P = float(c_star.period)
    omega_star = np.asarray(omega_star, dtype=float)

    t0 = c_star.t_start
    ts, ys, _ = propagate(c_star, omega_star, t0, t0 + P, tol=1e-11)
    rho_hat = float(np.exp(-2.0 * mu))
    seam = float(np.linalg.norm(ys[-1] - rho_hat * omega_star))
    if seam > 1e-6:
        raise ValueError(f"omega_star is not the slow monodromy eigenvector "
                         f"(|Phi(P,0) w - e^(-2mu) w| = {seam:.2e})")
    return WorstInput(period=P, mu=mu, kappa=2.0 * mu / P, rho_hat=rho_hat,
                      omega_star=omega_star, _m_ts=ts - t0, _m_ys=ys)


def simulate_gain(c: RankOneSignal, u, k_periods: int, tol: float = 1e-9):
    """Measured L2 input-output ratio ||x||_2 / ||u||_2 with its trace.

    u maps a time to the input vector and an array of times to one row
    per time.  It is applied on [0, k_periods * period] and switched off;
    integration continues through a decay tail (up to 20 more periods or
    ||x|| <= 1e-12, whichever first) so the response mass is not clipped.
    An identically zero input raises: the ratio is undefined.  Returns the
    ratio and the (t, |x|, |u|) trace, one row per accepted step.
    """
    if c.period is None:
        raise ValueError("simulate_gain needs a periodic control")
    P = float(c.period)
    n = c.dim
    t0 = c.t_start
    t_end = t0 + k_periods * P

    ts, ys, _ = propagate(c, np.zeros(n), t0, t_end, tol=tol, u=u)
    Iu = float(ys[-1][n + 1])
    if Iu <= 0.0:
        raise ValueError("input is identically zero over the horizon; "
                         "the gain ratio is undefined")

    # decay tail: input off, response mass keeps accumulating
    def off(t):
        return np.zeros(n)

    x, Ix = ys[-1][:n], float(ys[-1][n])
    all_ts, x_norms = [ts], [np.linalg.norm(ys[:, :n], axis=1)]
    t_cur = t_end
    for _ in range(_TAIL_PERIODS):
        if np.linalg.norm(x) <= 1e-12:
            break
        ts2, ys2, _ = propagate(c, x, t_cur, t_cur + P, tol=tol, u=off)
        all_ts.append(ts2[1:])
        x_norms.append(np.linalg.norm(ys2[1:, :n], axis=1))
        x, Ix = ys2[-1][:n], Ix + float(ys2[-1][n])
        t_cur += P

    all_ts = np.concatenate(all_ts)
    u_norms = np.zeros(len(all_ts))
    u_norms[:len(ts)] = np.linalg.norm(u(ts), axis=-1)
    trace = np.column_stack([all_ts, np.concatenate(x_norms), u_norms])
    return float(np.sqrt(Ix / Iu)), trace


def gain_estimate(a: float, b: float, T: float, k_periods: int = 50) -> GainReport:
    """Two-sided gain estimate for window bounds (a, b) and window length T.

    Computes mu(a, b) and mu(a/2, b/2) from the extremal pipeline, builds
    the worst input on the (a/2, b/2) extremal in its natural clock, takes
    its k-period ratio in closed form (WorstInput.ratio), and rescales
    everything to the user window by homogeneity
    (gamma(a, b, T) = T * gamma(a, b, 1)).  The same closed form gives
    the smallest horizon at which the sandwich certifies.
    """
    if k_periods < 1:
        raise ValueError("k_periods must be >= 1")
    mu = window_mu(a, b)

    c2, omega_star, mu_half = build_optimal_control(a / 2.0, b / 2.0)
    u = worst_input(c2, omega_star, mu_half)
    T_half = 0.5 * (a + b)  # natural half-window; c2 has period 2*T_half
    lower = gain_lower(mu_half, T)

    def simulated(k: int) -> float:
        return 0.5 * T * (u.ratio(k) / T_half)

    def certifies(k: int) -> bool:
        return lower <= simulated(k) * (1.0 + CONVERGENCE_TOL)

    # the ratio rises with k: double past the first certifying horizon, then bisect
    hi = 1
    while not certifies(hi):
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if certifies(mid) else (mid, hi)

    return GainReport(lower=lower, upper=gain_upper(mu, T),
                      simulated=simulated(k_periods), mu=float(mu),
                      params=(a, b, 2, T), horizon_periods=k_periods,
                      horizon_needed=hi, mu_half=float(mu_half))
