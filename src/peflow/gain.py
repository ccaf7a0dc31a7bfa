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

whose ratio rises with k to 1/kappa, the lower bound.  No ODE is solved
for m either: the slow eigenvector is the extremal's own initial state,
and the flow carries it along the extremal, m = e^{-J} (cos(theta/2),
sin(theta/2)) on the half period [0, T] with J the running cost, then
+-e^{-mu} D m(xi - T) under the mirrored control.  So
I_j = (1 + e^{(j - 2) mu}) int_0^T e^{j kappa s - 2 J(s)} ds, one
quadrature of the closed form, gives the ratio at every horizon.
simulate_gain stays as the independent check and the source of the
(t, |x|, |u|) trace.

Everything runs on the extremal's own (trace-one) clock, where the plant
really is xdot = -cc^T x + u with unit c; the bridge to the T-window
statement is the exact dilation identity
ratio_normalized = ratio_natural / T_half followed by the homogeneity
scaling gamma(a, b, T) = T * gamma(a, b, 1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray
from scipy.interpolate import CubicSpline

from .extremal2d import ExtremalParams, ExtremalTrajectory, mu as window_mu, \
    solve_extremal, verify_extremal
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

# periods of simulate_gain's input-free decay tail; the response mass past it,
# a share rho_hat^(2 _TAIL_PERIODS) of the tail's, is left out
_TAIL_PERIODS = 20
CONVERGENCE_TOL = 0.02  # the k-period ratio must reach lower / (1 + this)


@dataclass(frozen=True)
class GainReport:
    """Two-sided gain bounds with the worst input's k-period ratio.

    `simulated` is the exact L2 input-output ratio of the resonant input
    over `horizon_periods` periods plus the full decay tail, from the
    closed form of the half-window extremal.  It rises with the horizon to `lower`, so
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
    return T / -np.expm1(-mu)


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
    v(0) omega_star.  omega_star is the initial state of the half-window
    extremal traj, whose period is P = 2T, and m(xi) = Phi(xi, 0) omega_star
    is read from traj's closed form: the moments by quadrature, the
    values of m from a cubic spline through the same nodes.
    """

    traj: ExtremalTrajectory
    period: float
    mu: float
    kappa: float
    rho_hat: float

    @cached_property
    def m(self) -> CubicSpline:
        """xi -> Phi(xi, 0) omega_star on [0, P], the flow of omega_star over one
        period: a cubic spline through e^{-J} (cos(theta/2), sin(theta/2)) at the
        points of traj's grid, then through its image s e^{-mu} D m(xi - T),
        D = diag(1, -1), with the sign s that makes m continuous at T."""
        traj = self.traj
        xi, _, jac, _ = traj._grid
        m = np.exp(-traj.cost(xi))[:, None] * RankOneSignal._units(traj._columns(jac)[:, 0])
        sign = math.copysign(1.0, m[-1] @ (m[0] * [1.0, -1.0]))
        mirror = sign * math.exp(-self.mu) * m[1:] * [1.0, -1.0]
        return CubicSpline(np.concatenate([xi, xi[-1] + xi[1:]]),
                           np.concatenate([m, mirror]), axis=0)

    @cached_property
    def moments(self) -> tuple[float, float, float]:
        """(I0, I1, I2), I_j = int_0^P e^{j kappa xi} |m(xi)|^2 dxi.

        The half period [T, P] repeats [0, T] with |m|^2 scaled by e^{-2 mu}
        and e^{j kappa xi} by e^{j mu}, so I_j = (1 + e^{(j - 2) mu})
        int_0^T e^{j kappa s - 2 J(s)} ds, on the Gauss-Legendre nodes of traj's grid.
        """
        xi, weights, _, _ = self.traj._grid
        wm2 = weights * np.exp(-2.0 * self.traj.cost(xi[1:-1]))
        e = np.exp(self.kappa * xi[1:-1])
        I0 = (1.0 + math.exp(-2.0 * self.mu)) * float(wm2.sum())
        I1 = (1.0 + math.exp(-self.mu)) * float(wm2 @ e)
        I2 = 2.0 * float(wm2 @ (e * e))
        if not (np.isfinite([I0, I1, I2]).all() and I2 > 0.0):
            raise ArithmeticError(f"bad one-period moments {(I0, I1, I2)}")
        return I0, I1, I2

    def ratio(self, k_periods: int) -> float:
        """||x||_2 / ||u||_2 of this input applied for k_periods periods from
        x = 0, the whole decay tail included.  simulate_gain cuts the tail
        after _TAIL_PERIODS periods, so it reads lower wherever
        rho_hat^(2 _TAIL_PERIODS) is not negligible."""
        I0, I1, I2 = self.moments
        r = self.rho_hat
        if r == 1.0:
            raise ArithmeticError(f"rho_hat = exp(-2 mu) rounds to 1 at mu = {self.mu!r}")
        rk = r ** k_periods
        Ix = (k_periods * I2 - 2.0 * I1 * (1.0 - rk) / (1.0 - r)
              + I0 * ((1.0 - rk * rk) + (1.0 - rk) ** 2) / (1.0 - r * r))
        Iu = k_periods * self.kappa ** 2 * I2
        return float(np.sqrt(Ix / Iu))

    def __call__(self, t: float | NDArray) -> NDArray[np.float64]:
        """u(t), shape (n,) at one time and (len(t), n) at an array of times."""
        xi = t % self.period
        return (self.kappa * np.exp(self.kappa * xi) * self.m(xi).T).T


def worst_input(params: ExtremalParams, traj: ExtremalTrajectory) -> WorstInput:
    """Build the gain-saturating input on the extremal traj of params.

    The slow eigenvector of the period map is traj's initial state only if
    traj is the extremal of params, so traj must pass verify_extremal at its
    default tol; a ValueError names the worst residual otherwise.
    """
    report = verify_extremal(traj, params)
    if not report.passed:
        name = max(report.residuals, key=report.residuals.get)
        raise ValueError(f"the extremal fails its certificate ({name} = "
                         f"{report.residuals[name]:.2e}), so its initial state is "
                         "not certified as the slow monodromy eigenvector")
    mu, T = report.mu, params.T
    return WorstInput(traj=traj, period=2.0 * T, mu=mu, kappa=mu / T,
                      rho_hat=float(np.exp(-2.0 * mu)))


def simulate_gain(u: WorstInput, k_periods: int, tol: float = 1e-9):
    """Measured L2 input-output ratio ||x||_2 / ||u||_2 with its trace.

    The worst input u drives its own extremal's control, u.traj.control, from
    x = 0 at t = 0 on [0, k_periods * period] and is switched off;
    integration continues through a decay tail of _TAIL_PERIODS more
    periods, one flow, and the response mass after it is left out.
    An identically zero input raises: the ratio is undefined.  Returns the
    ratio and the (t, |x|, |u|) trace, one row per accepted step.
    """
    c = u.traj.control
    t_end = k_periods * c.period

    ts, ys = propagate(c, np.zeros(2), 0.0, t_end, tol=tol, u=u)  # rows (x, int |x|^2, int |u|^2)
    Iu = float(ys[-1][3])
    if Iu <= 0.0:
        raise ValueError("input is identically zero over the horizon; "
                         "the gain ratio is undefined")

    # decay tail: input off, response mass keeps accumulating
    tail_ts, tail = propagate(c, ys[-1][:2], t_end, t_end + _TAIL_PERIODS * c.period, tol=tol,
                              u=lambda t: np.zeros(2))
    Ix = float(ys[-1][2] + tail[-1][2])
    u_norms = np.zeros(len(ts) + len(tail_ts) - 1)
    u_norms[:len(ts)] = np.linalg.norm(u(ts), axis=-1)
    x_norms = np.linalg.norm(np.concatenate([ys, tail[1:]])[:, :2], axis=1)
    trace = np.column_stack([np.concatenate([ts, tail_ts[1:]]), x_norms, u_norms])
    return float(np.sqrt(Ix / Iu)), trace


def gain_estimate(a: float, b: float, T: float, k_periods: int = 50) -> GainReport:
    """Two-sided gain estimate for window bounds (a, b) and window length T.

    Computes mu(a, b) and mu(a/2, b/2) in closed form, builds the worst
    input on the certified (a/2, b/2) extremal in its natural clock, takes
    its k-period ratio in closed form (WorstInput.ratio), and rescales
    everything to the user window by homogeneity
    (gamma(a, b, T) = T * gamma(a, b, 1)).  The same closed form gives
    the smallest horizon at which the sandwich certifies.
    """
    if k_periods < 1:
        raise ValueError("k_periods must be >= 1")
    mu = window_mu(a, b)

    params, traj = solve_extremal(a / 2.0, b / 2.0)
    u = worst_input(params, traj)
    mu_half, T_half = u.mu, params.T  # the natural half-window; u has period 2 T_half
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
