"""Integration of the degenerate gradient flow xdot = -S(t) x (+ u).

propagate holds the right-hand sides of the free and the driven flow,
and every flow computation in the package goes through it.
integrate_flow uses its spherical form x = r*omega, ||omega|| = 1, with
the radius in log space, so it never underflows and the running cost
int omega^T S omega dt is -log r(t) for free.  That form is rank-one
only: (theta_j, log r_j) per column omega_j = (cos(theta_j/2),
sin(theta_j/2)), scalar ODEs with nothing to renormalize.
propagate walks the signal one piece at a time (signals.pieces): a
constant piece without input is one exact step, exp(-dt g cc^T) =
I - (1 - e^{-g dt}) cc^T for a rank-one control of gain g and eigh for a
constant matrix, and every other piece goes to an embedded Runge-Kutta
5(4) pair (Dormand-Prince coefficients) that reads S from that piece's
segment alone, so discontinuous piecewise controls are integrated
without order loss.  The pair steps lists of Python floats.  For a
rank-one control S = g cc^T, c = (cos(phi/2), sin(phi/2)), a stage reads
the one angle phi(t) from its segment for every column: the spherical
flow is theta' = g sin(theta - phi), (log r)' = -g (1 + cos(theta - phi))/2,
and the other layouts are x' = -g c (c^T x).  A matrix signal's
right-hand side reads S(t) as rows of floats.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np
from numpy.typing import NDArray

from .signals import RankOneSignal, Segment

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
    """Raised when the adaptive step size underflows or the step budget runs out."""


# Dormand-Prince 5(4) coefficients, FSAL form: stage i reads t + c_i h and
# y + h * sum_j a_ij k_j; the seventh stage sits at the fifth-order solution,
# whose weights b_j are a_7j.  e_j = b_j - b*_j weights the error estimate
# against the embedded fourth-order solution (b_2 = b*_2 = 0).
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4 = _B1 - 5179 / 57600, _B3 - 7571 / 16695, _B4 - 393 / 640
_E5, _E6, _E7 = _B5 + 92097 / 339200, _B6 - 187 / 2100, -1 / 40

_MAX_STEPS = 2_000_000  # attempted steps per call; long user horizons need this many


def adaptive_rk45(f, t0: float, t1: float, y0, tol: float = 1e-9, h0: float | None = None):
    """Integrate y' = f(t, y) from t0 to t1, recording every accepted step.

    The state is a list of Python floats: f(t, y) receives one and returns
    a sequence of floats of the same length, and must not modify y.  On
    states of a few numbers this runs several times faster than numpy,
    whose per-call overhead exceeds the arithmetic.

    f must be smooth on [t0, t1]; a caller with a piecewise f integrates
    one piece per call.  h0 is the first trial step (default (t1 - t0)/100).
    After _MAX_STEPS attempted steps, accepted or rejected, it raises
    IntegrationError.

    Returns (ts, ys, h) with ts shape (m,), ys shape (m, len(y0)),
    and h the step the controller proposes next, so that a caller can carry
    it into the following piece.
    """
    span = t1 - t0
    if not (span > 0 and 0.0 < tol < math.inf):
        raise ValueError(f"need t0 < t1 and a finite tol > 0, got {t0}, {t1}, {tol}")
    c2, c3, c4, c5 = _C2, _C3, _C4, _C5
    a21, a31, a32, a41, a42, a43 = _A21, _A31, _A32, _A41, _A42, _A43
    a51, a52, a53, a54 = _A51, _A52, _A53, _A54
    a61, a62, a63, a64, a65 = _A61, _A62, _A63, _A64, _A65
    b1, b3, b4, b5, b6 = _B1, _B3, _B4, _B5, _B6
    e1, e3, e4, e5, e6, e7 = _E1, _E3, _E4, _E5, _E6, _E7
    snap = 1e-13 * max(1.0, abs(t1))
    end = t1 - 1e-14 * max(1.0, abs(t1))

    y = [float(v) for v in y0]
    n = len(y)
    ts = [t0]
    ys = [y]
    t = t0
    h = span / 100.0 if h0 is None else h0
    k1 = f(t, y)  # the slope at (t, y)
    steps = 0
    while t < end:
        if steps >= _MAX_STEPS:
            raise IntegrationError(f"step budget exhausted at t={t:.6g}")
        h = min(h, t1 - t)
        if h < 1e-14 * max(1.0, abs(t)):
            raise IntegrationError(f"step size underflow at t={t:.6g} (h={h:.3e})")
        # one comprehension per stage; d_i is component v's slope in stage i
        k2 = f(t + c2 * h, [v + h * (a21 * d1) for v, d1 in zip(y, k1)])
        k3 = f(t + c3 * h, [v + h * (a31 * d1 + a32 * d2) for v, d1, d2 in zip(y, k1, k2)])
        k4 = f(t + c4 * h, [v + h * (a41 * d1 + a42 * d2 + a43 * d3)
                            for v, d1, d2, d3 in zip(y, k1, k2, k3)])
        k5 = f(t + c5 * h, [v + h * (a51 * d1 + a52 * d2 + a53 * d3 + a54 * d4)
                            for v, d1, d2, d3, d4 in zip(y, k1, k2, k3, k4)])
        k6 = f(t + h, [v + h * (a61 * d1 + a62 * d2 + a63 * d3 + a64 * d4 + a65 * d5)
                       for v, d1, d2, d3, d4, d5 in zip(y, k1, k2, k3, k4, k5)])
        y5 = [v + h * (b1 * d1 + b3 * d3 + b4 * d4 + b5 * d5 + b6 * d6)
              for v, d1, d3, d4, d5, d6 in zip(y, k1, k3, k4, k5, k6)]
        k7 = f(t + h, y5)
        acc = 0.0
        for v, v5, d1, d3, d4, d5, d6, d7 in zip(y, y5, k1, k3, k4, k5, k6, k7):
            v, v5 = abs(v), abs(v5)
            scaled = h * (e1 * d1 + e3 * d3 + e4 * d4 + e5 * d5 + e6 * d6 + e7 * d7) \
                / (tol + tol * (v if v > v5 else v5))
            acc += scaled * scaled
        err = math.sqrt(acc / n)
        steps += 1
        if err <= 1.0:
            t = t + h
            if abs(t - t1) <= snap:
                t = t1
            y = y5
            if t < t1:  # at t1 the next slope belongs to the caller's next piece
                k1 = k7
            ts.append(t)
            ys.append(y)
        factor = 0.9 * err ** -0.2 if err > 0 else 5.0
        h = h * min(5.0, max(0.2, factor))
    return np.array(ts), np.array(ys), h


@dataclass(frozen=True)
class Trajectory:
    """Time-sampled spherical state (t, omega, log_r) of a planar flow.

    Samples sit at accepted integrator steps and at every piece boundary;
    omega has unit norm at each sample and log_r is non-increasing for PSD
    controls.
    """

    ts: NDArray[np.float64]
    omegas: NDArray[np.float64]
    log_r: NDArray[np.float64]

    @property
    def cost(self) -> float:
        """Accumulated cost int omega^T S omega dt over the full span of a vector flow."""
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


def _exact_map(signal, seg: Segment, dt: float) -> NDArray:
    """exp(-dt S) for the constant S of seg: I + expm1(-g dt) cc^T for
    S = g cc^T, with g the segment's own gain, else by eigh."""
    if isinstance(signal, RankOneSignal):
        half = 0.5 * float(seg.data[0])
        c0, c1 = math.cos(half), math.sin(half)
        cc = np.array([[c0 * c0, c0 * c1], [c0 * c1, c1 * c1]])
        return np.eye(2) + np.expm1(-seg.gain * dt) * cc
    lam, V = np.linalg.eigh(np.array(signal.matrix_on(seg, 0.0)(seg.t0)))
    return (V * np.exp(-dt * lam)) @ V.T


def propagate(signal, x0, t0: float, t1: float, tol: float = 1e-9, u=None,
              spherical: bool = False):
    """Integrate x' = -S(t) x (+ u(t)) on [t0, t1], one signal piece at a time.

    x0 is a vector or an (n, k) column block, n = signal.dim; each state
    row holds x flattened.  With an input u (a vector x0), the state is
    (x, int |x|^2, int |u|^2), both integrals starting at zero; it raises
    ValueError with a block x0 or spherical=True.  With spherical=True the
    signal must be a RankOneSignal and x0 a unit vector or a (2, k) block of
    unit columns, to 1e-9 (else ValueError), the rows (omega flattened,
    log r_1..log r_k), and the integrated state (theta_1..theta_k,
    log r_1..log r_k), every column reading the one angle phi of a stage:

        theta_j' = g sin(theta_j - phi),  (log r_j)' = -g (1 + cos(theta_j - phi))/2.

    Each RK piece starts from log r_j = 0 and from each theta_j rebased by
    its own multiple of 2 pi (theta_j' has period 2 pi) into [-pi, pi], so
    the error scale tol * (1 + |y|) is the piece's own.  For the same reason
    a free x or block whose largest entry has decayed below 1/2 enters each
    RK piece scaled by a power of 2 into [1/2, 1) (the flow is linear, the
    scaling exact); unscaled, the error scale would turn absolute as |x| decays.

    A constant piece without input is one exact step, x <- exp(-dt S) x
    (column by column when spherical).  Any other piece goes to adaptive_rk45
    with S read from the piece's own segment (a stage on its right end reads
    the left limit there): one angle per stage for a RankOneSignal, rows of S
    for a MatrixSignal.  The step size carries over from piece to piece.  A
    piece on which the stability limit h < 3.3/lambda alone needs over
    _MAX_STEPS steps raises IntegrationError before its first step (lambda:
    the gain, times the largest sample trace for a matrix signal).

    Returns (ts, ys): the piece ends and accepted steps, and the states there.
    """
    if not (t1 > t0 and 0.0 < tol < math.inf):  # exact pieces never reach adaptive_rk45
        raise ValueError(f"need t0 < t1 and a finite tol > 0, got {t0}, {t1}, {tol}")
    x0 = np.asarray(x0, dtype=float)
    if u is not None and (spherical or x0.ndim != 1):
        raise ValueError("an input u fits only a vector x0 with spherical=False: the "
                         "spherical layout and column blocks carry the free flow only")
    rank_one = isinstance(signal, RankOneSignal)
    if spherical and not rank_one:  # a RankOneSignal is planar
        raise ValueError(f"the spherical layout is planar only, not of dimension {signal.dim}"
                         if signal.dim != 2 else "the spherical layout is rank-one only")
    if x0.shape[:1] != (signal.dim,):
        raise ValueError(f"x0 of shape {x0.shape} does not fit the signal's dimension {signal.dim}")
    if spherical and np.any(np.abs(np.linalg.norm(x0, axis=0) - 1.0) > 1e-9):
        raise ValueError("a spherical x0 must be a unit vector or a block of unit columns")
    shape, size = x0.shape, x0.size
    k = size // shape[0]  # columns of the block, 1 for a vector

    def f(t, y):  # a MatrixSignal: reads S_at of the piece being integrated, as rows of floats
        S = S_at(t)
        cols = [y[j:size:k] for j in range(k)]
        s_x = [sum(map(mul, row, col)) for row in S for col in cols]  # S X, row-major
        if u is None:
            return [-v for v in s_x]
        x = cols[0]
        uv = np.asarray(u(t), dtype=float).tolist()
        return [-v + w for v, w in zip(s_x, uv)] + [sum(map(mul, x, x)), sum(map(mul, uv, uv))]

    def rank_one_f(t, y):  # -g c (c^T x) per column (+ u), c = (cos(phi/2), sin(phi/2))
        half = 0.5 * phi_at(t)
        c0, c1 = math.cos(half), math.sin(half)
        if k > 1:
            p = [-g * (c0 * v + c1 * w) for v, w in zip(y[:k], y[k:])]
            return [c0 * v for v in p] + [c1 * v for v in p]
        y0, y1 = y[0], y[1]
        p = -g * (c0 * y0 + c1 * y1)
        if u is None:
            return [c0 * p, c1 * p]
        v0, v1 = np.asarray(u(t), dtype=float).tolist()
        return [c0 * p + v0, c1 * p + v1, y0 * y0 + y1 * y1, v0 * v0 + v1 * v1]

    def rank_one_angle(t, y):  # (theta, log r) under S = g cc^T, one angle read
        d = y[0] - phi_at(t)
        return [g * math.sin(d), q * (1.0 + math.cos(d))]

    def rank_one_angles(t, y):  # every (theta_j, log r_j) of a block reads the one angle
        phi = phi_at(t)
        if k == 2:  # written out: a pair of comprehensions costs more than the arithmetic
            d, e = y[0] - phi, y[1] - phi
            return [g * math.sin(d), g * math.sin(e),
                    q * (1.0 + math.cos(d)), q * (1.0 + math.cos(e))]
        ds = [v - phi for v in y[:k]]
        return [g * math.sin(d) for d in ds] + [q * (1.0 + math.cos(d)) for d in ds]

    y = (np.array([2.0 * math.atan2(v, w) for w, v in x0.reshape(2, k).T] + [0.0] * k)
         if spherical else np.concatenate([x0.ravel(), [] if u is None else [0.0, 0.0]]))
    ts, ys = [np.array([t0], dtype=float)], [y[None]]
    h = (t1 - t0) / 100.0
    for u0, u1, seg, shift in signal.pieces(t0, t1):
        if u is None and len(seg.data) == 1:
            E = _exact_map(signal, seg, u1 - u0)
            y = y.copy()
            if spherical:  # column by column
                for j in range(k):
                    x = E @ RankOneSignal._unit(y[j])
                    y[j::k] = 2.0 * math.atan2(x[1], x[0]), y[k + j] + math.log(math.hypot(*x))
            else:
                y[:] = (E @ y.reshape(shape)).ravel()
            ts.append(np.array([u1]))
            ys.append(y[None])
            continue
        if rank_one:
            g, q, phi_at = seg.gain, -0.5 * seg.gain, seg.reader(shift)
            rhs = (rank_one_angle if k == 1 else rank_one_angles) if spherical else rank_one_f
        else:
            S_at, rhs = signal.matrix_on(seg, shift), f
        lam = seg.gain * (1.0 if rank_one else float(np.max(np.trace(seg.data, axis1=1, axis2=2))))
        if lam * (u1 - u0) > 3.2 * _MAX_STEPS:
            raise IntegrationError(f"piece [{u0:.6g}, {u1:.6g}] of gain {lam:.3g} needs over "
                                   f"{_MAX_STEPS} steps: RK45 is stable only for h < 3.3/gain")
        off = (np.array([2.0 * math.pi * round(v / (2.0 * math.pi)) for v in y[:k].tolist()]
                        + y[k:].tolist()) if spherical else 0.0)
        e = 0  # a decayed free x or block is integrated times 2^-e, exactly, in [0.5, 1)
        if u is None and not spherical:
            top = float(np.max(np.abs(y)))
            if 0.0 < top < 0.5:
                e = math.frexp(top)[1]
        pts, pys, h = adaptive_rk45(rhs, u0, u1, np.ldexp(y - off, -e), tol=tol, h0=h)
        pys = np.ldexp(pys, e) + off
        y = pys[-1]
        ts.append(pts[1:])
        ys.append(pys[1:])
    ys = np.concatenate(ys)
    if spherical:  # omega flattened: (cos(theta_j/2))_j, then (sin(theta_j/2))_j
        ys = np.column_stack([np.cos(0.5 * ys[:, :k]), np.sin(0.5 * ys[:, :k]), ys[:, k:]])
    return np.concatenate(ts), ys


def integrate_flow(signal, omega0, t0: float, t1: float, tol: float = 1e-9) -> Trajectory:
    """Solve the spherical system for omega(t), shape (m, 2) or (m, 2, k), and log r(t),
    (m,) or (m, k), on [t0, t1] from theta0 = 2 atan2(omega0[1], omega0[0]) of a unit
    vector omega0 or each unit column of a (2, k) block (ValueError if not unit)."""
    omega0 = np.asarray(omega0, dtype=float)
    ts, ys = propagate(signal, omega0, t0, t1, tol=tol, spherical=True)
    k, shape = omega0.size // 2, omega0.shape
    return Trajectory(ts, ys[:, :-k].reshape(-1, *shape), ys[:, -k:].reshape(-1, *shape[1:]))


def fundamental_matrix(signal, t0: float, t1: float, tol: float = 1e-9) -> NDArray:
    """Phi(t1, t0) for xdot = -S(t) x, integrated column-block as one system."""
    n = signal.dim
    _, ys = propagate(signal, np.eye(n), t0, t1, tol=tol)
    return ys[-1].reshape(n, n)


def cost_J(signal, omega0, T: float) -> float:
    """int_0^T omega^T S omega dt along the flow started at omega0."""
    t0 = signal.t_start
    return integrate_flow(signal, omega0, t0, t0 + T, tol=1e-9).cost


def decay_rate(signal, n_periods: int = 10, tol: float = 1e-9) -> DecayReport:
    """Asymptotic decay rate of ||Phi(t, 0)||.

    Periodic signals use the monodromy matrix (exact up to integration
    error) and also report the slope-regression diagnostic over n_periods
    period maps with per-period renormalization.  Aperiodic signals get a
    slope estimate over their span only, flagged as a finite-horizon
    surrogate.
    """
    if signal.period is not None:
        P = signal.period
        phi = fundamental_matrix(signal, signal.t_start, signal.t_start + P, tol=tol)
        rho = float(np.max(np.abs(np.linalg.eigvals(phi))))
        times = np.arange(n_periods + 1) * P
        phis = [phi] * n_periods
    else:
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
