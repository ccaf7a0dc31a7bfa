"""Integration of the degenerate gradient flow xdot = -S(t) x (+ u).

propagate holds the one right-hand side of the free and the driven flow,
and every flow computation in the package goes through it.
integrate_flow uses its spherical form: with x = r*omega, ||omega|| = 1,

    d(log r)/dt = -omega^T S omega,
    omega'      = -S omega + (omega^T S omega) omega,

so the radius lives in log space and never underflows, and the running
cost int omega^T S omega dt is -log r(t) for free.  propagate walks the
signal one piece at a time (signals.pieces): a constant piece without
input is one exact step, exp(-dt cc^T) = I - (1 - e^{-dt}) cc^T for a
rank-one control and eigh for a constant matrix, and every other piece
goes to an embedded Runge-Kutta 5(4) pair (Dormand-Prince coefficients)
that reads S from that piece's segment alone, so discontinuous piecewise
controls are integrated without order loss.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .signals import RankOneSignal

__all__ = [
    "IntegrationError",
    "Trajectory",
    "DecayReport",
    "adaptive_rk45",
    "propagate",
    "integrate_flow",
    "fundamental_matrix",
    "cost_J",
    "decay_rate",
]


class IntegrationError(RuntimeError):
    """Raised when the adaptive step size underflows."""


# Dormand-Prince 5(4) tableau, FSAL form: row i of _A weights the stages
# before stage i, and the last row equals the fifth-order weights _B5
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = np.array([
    [0, 0, 0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0, 0],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0],
])
_B5 = _A[6]
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                187 / 2100, 1 / 40])
_E = _B5 - _B4

_MAX_STEPS = 2_000_000


def adaptive_rk45(f, t0: float, t1: float, y0: NDArray, tol: float = 1e-9,
                  post_step=None, h0: float | None = None):
    """Integrate y' = f(t, y) from t0 to t1, recording every accepted step.

    f must be smooth on [t0, t1]; a caller with a piecewise f integrates
    one piece per call.  post_step, if given, maps an accepted (t, y) to a
    corrected y (e.g. renormalization); the correction magnitude is
    accumulated and returned.  h0 is the first trial step (default
    (t1 - t0)/100).

    Returns (ts, ys, drift, h) with ts shape (m,), ys shape (m, len(y0)),
    and h the step the controller proposes next, so that a caller can carry
    it into the following piece.
    """
    y = np.asarray(y0, dtype=float).copy()
    span = t1 - t0
    if span <= 0:
        raise ValueError("need t0 < t1")
    snap = 1e-13 * max(1.0, abs(t1))

    ts = [t0]
    ys = [y.copy()]
    drift = 0.0
    t = t0
    h = span / 100.0 if h0 is None else h0
    K = np.empty((7, y.size))  # stage slopes; row 0 is the slope at (t, y)
    K[0] = f(t, y)
    steps = 0
    while t < t1 - 1e-14 * max(1.0, abs(t1)):
        if steps >= _MAX_STEPS:
            raise IntegrationError(f"step budget exhausted at t={t:.6g}")
        h = min(h, t1 - t)
        if h < 1e-14 * max(1.0, abs(t)):
            raise IntegrationError(f"step size underflow at t={t:.6g} (h={h:.3e})")
        for i in range(1, 7):
            K[i] = f(t + _C[i] * h, y + h * (_A[i, :i] @ K[:i]))
        y5 = y + h * (_B5 @ K)
        err_vec = h * (_E @ K)
        scale = tol + tol * np.maximum(np.abs(y), np.abs(y5))
        err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
        steps += 1
        if err <= 1.0:
            t = t + h
            if abs(t - t1) <= snap:
                t = t1
            y = y5
            if post_step is not None:
                y_new = post_step(t, y)
                drift += float(np.max(np.abs(y_new - y)))
                y = y_new
            if t < t1:  # at t1 the next slope belongs to the caller's next piece
                K[0] = K[6] if post_step is None else f(t, y)
            ts.append(t)
            ys.append(y.copy())
        factor = 0.9 * err ** -0.2 if err > 0 else 5.0
        h = h * min(5.0, max(0.2, factor))
    return np.array(ts), np.array(ys), drift, h


@dataclass(frozen=True)
class Trajectory:
    """Time-sampled spherical state (t, omega, log_r) of a flow.

    Samples sit at accepted integrator steps and at every piece boundary;
    omega has unit norm at each sample and log_r is non-increasing for PSD
    controls.
    """

    ts: NDArray[np.float64]
    omegas: NDArray[np.float64]
    log_r: NDArray[np.float64]
    renorm_drift: float = 0.0

    @property
    def cost(self) -> float:
        """Accumulated cost int omega^T S omega dt over the full span."""
        return float(-self.log_r[-1] + self.log_r[0])


@dataclass(frozen=True)
class DecayReport:
    """Exponential decay rate of the flow for a given control.

    rate is -log(spectral radius of the period map)/period for the
    monodromy method, or a log-norm regression slope for the slope method.
    finite_horizon marks slope estimates on aperiodic signals, where the
    asymptotic rate is only approximated on the available span.
    """

    rate: float
    horizon: float
    method: str
    contraction_per_period: float | None = None
    slope_rate: float | None = None
    finite_horizon: bool = False


def _renormalize(t, y):
    out = y.copy()
    nrm = np.linalg.norm(out[:-1])
    out[:-1] /= nrm
    return out


def _exact_map(signal, S: NDArray, dt: float) -> NDArray:
    """exp(-dt S) for a constant S: closed form for S = cc^T, else by eigh."""
    if isinstance(signal, RankOneSignal):
        return np.eye(signal.dim) + np.expm1(-dt) * S
    lam, V = np.linalg.eigh(S)
    return (V * np.exp(-dt * lam)) @ V.T


def propagate(signal, x0, t0: float, t1: float, tol: float = 1e-9, u=None,
              spherical: bool = False):
    """Integrate x' = -S(t) x (+ u(t)) on [t0, t1], one signal piece at a time.

    x0 is a vector or an (n, k) column block; each state row holds x
    flattened.  With an input u (a vector x0), the state is
    (x, int |x|^2, int |u|^2), both integrals starting at zero.  With
    spherical=True, x0 is a unit vector omega and the state is
    (omega, log r), renormalized after every accepted step.

    A constant piece without input is one exact step, x <- exp(-dt S) x.
    Any other piece is integrated by adaptive_rk45 with S read from the
    piece's own segment (a stage on the piece's right end reads the left
    limit there); the step size carries over from piece to piece.

    Returns (ts, ys, drift): the piece ends and accepted steps, the states
    there, and the summed renormalization drift.
    """
    if not t1 > t0:
        raise ValueError("need t0 < t1")
    x0 = np.asarray(x0, dtype=float)
    shape, size = x0.shape, x0.size

    def f(t, y):  # reads S_at of the piece being integrated
        x = y[:size].reshape(shape)
        s_x = S_at(t) @ x
        if u is None and not spherical:
            return -s_x.ravel()
        out = np.empty_like(y)
        if spherical:
            q = float(x @ s_x)
            out[:-1] = -s_x + q * x
            out[-1] = -q
        else:
            uv = np.asarray(u(t), dtype=float)
            out[:-2] = -s_x + uv
            out[-2] = x @ x
            out[-1] = uv @ uv
        return out

    extra = [0.0] if spherical else [] if u is None else [0.0, 0.0]
    y = np.concatenate([x0.ravel(), extra])
    ts, ys = [np.array([t0], dtype=float)], [y[None]]
    drift = 0.0
    h = (t1 - t0) / 100.0
    for u0, u1, seg, shift in signal.pieces(t0, t1):
        S_at = signal.matrix_on(seg, shift)
        if u is None and len(seg.data) == 1:
            E = _exact_map(signal, S_at(u0), u1 - u0)
            y = y.copy()
            if spherical:
                x = E @ y[:-1]
                nrm = float(np.linalg.norm(x))
                y[:-1] = x / nrm
                y[-1] += math.log(nrm)
            else:
                y[:] = (E @ y.reshape(shape)).ravel()
            ts.append(np.array([u1]))
            ys.append(y[None])
            continue
        pts, pys, d, h = adaptive_rk45(f, u0, u1, y, tol=tol, h0=h,
                                       post_step=_renormalize if spherical else None)
        y = pys[-1]
        ts.append(pts[1:])
        ys.append(pys[1:])
        drift += d
    return np.concatenate(ts), np.concatenate(ys), drift


def integrate_flow(signal, omega0, t0: float | None = None, t1: float | None = None,
                   tol: float = 1e-9) -> Trajectory:
    """Solve the spherical system for omega(t) and log r(t) on [t0, t1]."""
    omega0 = np.asarray(omega0, dtype=float)
    if abs(np.linalg.norm(omega0) - 1.0) > 1e-9:
        raise ValueError("omega0 must be a unit vector")
    if t0 is None:
        t0 = signal.t_start
    if t1 is None:
        t1 = signal.horizon
    ts, ys, drift = propagate(signal, omega0, t0, t1, tol=tol, spherical=True)
    return Trajectory(ts, ys[:, :-1], ys[:, -1], renorm_drift=drift)


def fundamental_matrix(signal, t0: float, t1: float, tol: float = 1e-9) -> NDArray:
    """Phi(t1, t0) for xdot = -S(t) x, integrated column-block as one system."""
    n = signal.dim
    _, ys, _ = propagate(signal, np.eye(n), t0, t1, tol=tol)
    return ys[-1].reshape(n, n)


def cost_J(signal, omega0, T: float | None = None, tol: float = 1e-9) -> float:
    """int_0^T omega^T S omega dt along the flow started at omega0."""
    t0 = signal.t_start
    t1 = t0 + T if T is not None else signal.horizon
    traj = integrate_flow(signal, omega0, t0, t1, tol=tol)
    return traj.cost


def decay_rate(signal, n_periods: int = 10, horizon: float | None = None,
               tol: float = 1e-9) -> DecayReport:
    """Asymptotic decay rate of ||Phi(t, 0)||.

    Periodic signals use the monodromy matrix (exact up to integration
    error) and also report the slope-regression diagnostic over n_periods
    period maps with per-period renormalization.  Aperiodic signals need
    an explicit horizon and get a slope estimate only, flagged as a
    finite-horizon surrogate.
    """
    if signal.period is not None:
        P = signal.period
        phi = fundamental_matrix(signal, signal.t_start, signal.t_start + P, tol=tol)
        rho = float(np.max(np.abs(np.linalg.eigvals(phi))))
        times = np.arange(n_periods + 1) * P
        phis = [phi] * n_periods
    else:
        if horizon is None:
            horizon = signal.horizon - signal.t_start
        edges = np.linspace(signal.t_start, signal.t_start + horizon, n_periods + 1)
        times = edges - edges[0]
        phis = (fundamental_matrix(signal, float(t0), float(t1), tol=tol)
                for t0, t1 in zip(edges[:-1], edges[1:]))
    # slope of log||Phi_k ... Phi_1||, accumulated with renormalization
    logs = [0.0]
    m = np.eye(signal.dim)
    for phi_k in phis:
        m = phi_k @ m
        nrm = np.linalg.norm(m, 2)
        logs.append(logs[-1] + np.log(nrm))
        m = m / nrm
    slope_rate = -float(np.polyfit(times, logs, 1)[0])
    if signal.period is not None:
        return DecayReport(rate=float(-np.log(rho) / P), horizon=n_periods * P,
                           method="monodromy", contraction_per_period=rho,
                           slope_rate=slope_rate)
    return DecayReport(rate=slope_rate, horizon=float(horizon), method="slope",
                       slope_rate=slope_rate, finite_horizon=True)
