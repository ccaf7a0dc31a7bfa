"""Integration of the degenerate gradient flow xdot = -S(t) x (+ u).

propagate holds the right-hand sides of the free and the driven flow,
and every flow computation in the package goes through it.
integrate_flow uses its spherical form x = r*omega, ||omega|| = 1, with
the radius in log space, so it never underflows and the running cost
int omega^T S omega dt is -log r(t) for free.  In the plane the state is
(theta, log r), omega = (cos(theta/2), sin(theta/2)): two scalar ODEs with
nothing to renormalize.  At other n it is (omega, log r), with
omega' = -S omega + (omega^T S omega) omega renormalized after each step.
propagate walks the signal one piece at a time (signals.pieces): a
constant piece without input is one exact step, exp(-dt g cc^T) =
I - (1 - e^{-g dt}) cc^T for a rank-one control of gain g and eigh for a
constant matrix, and every other piece goes to an embedded Runge-Kutta
5(4) pair (Dormand-Prince coefficients) that reads S from that piece's
segment alone, so discontinuous piecewise controls are integrated
without order loss.  The pair steps lists of Python floats.  For a
rank-one control S = g cc^T, c = (cos(phi/2), sin(phi/2)), a stage reads
the one angle phi(t) from its segment: the planar spherical flow is
theta' = g sin(theta - phi), (log r)' = -g (1 + cos(theta - phi))/2, and
the plain, column-block and input layouts are x' = -g c (c^T x) per
column.  A matrix signal's right-hand sides read S(t) as rows of floats.
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
    """Raised when the adaptive step size underflows."""


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

_MAX_STEPS = 2_000_000


def adaptive_rk45(f, t0: float, t1: float, y0, tol: float = 1e-9,
                  post_step=None, h0: float | None = None):
    """Integrate y' = f(t, y) from t0 to t1, recording every accepted step.

    The state is a list of Python floats: f(t, y) receives one and returns
    a sequence of floats of the same length, and must not modify y.  On
    states of a few numbers this runs several times faster than numpy,
    whose per-call overhead exceeds the arithmetic.

    f must be smooth on [t0, t1]; a caller with a piecewise f integrates
    one piece per call.  post_step, if given, maps an accepted (t, y) to a
    corrected y (e.g. renormalization); the correction magnitude is
    accumulated and returned.  h0 is the first trial step (default
    (t1 - t0)/100).

    Returns (ts, ys, drift, h) with ts shape (m,), ys shape (m, len(y0)),
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
    drift = 0.0
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
            if post_step is not None:
                y = post_step(t, y5)
                drift += max(abs(v - v5) for v, v5 in zip(y, y5))
            if t < t1:  # at t1 the next slope belongs to the caller's next piece
                k1 = k7 if post_step is None else f(t, y)
            ts.append(t)
            ys.append(y)
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
    x = y[:-1]
    nrm = math.sqrt(sum(map(mul, x, x)))
    return [v / nrm for v in x] + [y[-1]]


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
    (x, int |x|^2, int |u|^2), both integrals starting at zero.  With
    spherical=True, x0 is a unit vector omega and the rows are (omega,
    log r); an input there, or with a block x0, raises ValueError.  In
    the plane the integrated state is (theta, log r), with

        theta'   = (S11 - S22) sin theta - 2 S12 cos theta,
        (log r)' = -[(S11 + S22)/2 + (S11 - S22)/2 cos theta + S12 sin theta],

    which for S = g cc^T is g sin(theta - phi) and -g (1 + cos(theta - phi))/2,
    and each RK piece starts from log r = 0 and from theta rebased by a
    multiple of 2 pi (theta' has period 2 pi) into [-pi, pi], so the error
    scale tol * (1 + |y|) is the piece's own.  For the same reason a free x
    or block whose largest entry has decayed below 1/2 enters each RK piece
    scaled by a power of 2 into [1/2, 1) (the flow is linear, the scaling
    exact); unscaled, the error scale would turn absolute as |x| decays.

    A constant piece without input is one exact step, x <- exp(-dt S) x.
    Any other piece goes to adaptive_rk45 with S read from the piece's own
    segment (a stage on its right end reads the left limit there): one
    angle per stage for a RankOneSignal, rows of S for a MatrixSignal.  The
    step size carries over from piece to piece.

    Returns (ts, ys, drift): the piece ends and accepted steps, the states
    there, and the summed renormalization drift (0 in the plane).
    """
    if not (t1 > t0 and 0.0 < tol < math.inf):  # exact pieces never reach adaptive_rk45
        raise ValueError(f"need t0 < t1 and a finite tol > 0, got {t0}, {t1}, {tol}")
    x0 = np.asarray(x0, dtype=float)
    if u is not None and (spherical or x0.ndim != 1):
        raise ValueError("an input u fits only a vector x0 with spherical=False: the "
                         "spherical layouts and column blocks carry the free flow only")
    if x0.shape[:1] != (signal.dim,):
        raise ValueError(f"x0 of shape {x0.shape} does not fit the signal's dimension {signal.dim}")
    shape, size = x0.shape, x0.size
    k = size // shape[0]  # columns of the block, 1 for a vector
    planar = spherical and signal.dim == 2
    rank_one = isinstance(signal, RankOneSignal)

    def f(t, y):  # a MatrixSignal: reads S_at of the piece being integrated, as rows of floats
        S = S_at(t)
        cols = [y[j:size:k] for j in range(k)]
        s_x = [sum(map(mul, row, col)) for row in S for col in cols]  # S X, row-major
        if u is None and not spherical:
            return [-v for v in s_x]
        x = cols[0]
        if spherical:
            q = sum(map(mul, x, s_x))
            return [-v + q * w for v, w in zip(s_x, x)] + [-q]
        uv = np.asarray(u(t), dtype=float).tolist()
        return [-v + w for v, w in zip(s_x, uv)] + [sum(map(mul, x, x)), sum(map(mul, uv, uv))]

    def angle(t, y):  # the planar spherical flow in (theta, log r) of a MatrixSignal
        (s11, s12), (_, s22) = S_at(t)
        c, s, d = math.cos(y[0]), math.sin(y[0]), s11 - s22
        return [d * s - 2.0 * s12 * c, -0.5 * (s11 + s22 + d * c) - s12 * s]

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
        return [g * math.sin(d), -0.5 * g * (1.0 + math.cos(d))]

    y = (np.array([2.0 * math.atan2(x0[1], x0[0]), 0.0]) if planar else
         np.concatenate([x0.ravel(), [0.0] if spherical else [] if u is None else [0.0, 0.0]]))
    ts, ys = [np.array([t0], dtype=float)], [y[None]]
    drift = 0.0
    h = (t1 - t0) / 100.0
    for u0, u1, seg, shift in signal.pieces(t0, t1):
        if u is None and len(seg.data) == 1:
            E = _exact_map(signal, seg, u1 - u0)
            y = y.copy()
            if planar:
                x = E @ RankOneSignal._unit(y[0])
                y[:] = 2.0 * math.atan2(x[1], x[0]), y[1] + math.log(math.hypot(*x))
            elif spherical:
                x = E @ y[:-1]
                nrm = float(np.linalg.norm(x))
                y[:-1] = x / nrm
                y[-1] += math.log(nrm)
            else:
                y[:] = (E @ y.reshape(shape)).ravel()
            ts.append(np.array([u1]))
            ys.append(y[None])
            continue
        if rank_one:
            g, phi_at = signal.angle_on(seg, shift)
            rhs = rank_one_angle if planar else rank_one_f
        else:
            S_at = signal.matrix_on(seg, shift)
            rhs = angle if planar else f
        off = np.array([2.0 * math.pi * round(y[0] / (2.0 * math.pi)), y[1]]) if planar else 0.0
        e = 0  # a decayed free x or block is integrated times 2^-e, exactly, in [0.5, 1)
        if u is None and not spherical:
            top = float(np.max(np.abs(y)))
            if 0.0 < top < 0.5:
                e = math.frexp(top)[1]
        pts, pys, d, h = adaptive_rk45(rhs, u0, u1, np.ldexp(y - off, -e), tol=tol, h0=h,
                                       post_step=_renormalize if spherical and not planar else None)
        pys = np.ldexp(pys, e) + off
        y = pys[-1]
        ts.append(pts[1:])
        ys.append(pys[1:])
        drift += d
    ys = np.concatenate(ys)
    if planar:
        ys = np.column_stack([RankOneSignal._units(ys[:, 0]), ys[:, 1]])
    return np.concatenate(ts), ys, drift


def integrate_flow(signal, omega0, t0: float | None = None, t1: float | None = None,
                   tol: float = 1e-9) -> Trajectory:
    """Solve the spherical system for omega(t) and log r(t) on [t0, t1]; in the
    plane from theta0 = 2 atan2(omega0[1], omega0[0]) (omega0 with its sign), drift 0."""
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
