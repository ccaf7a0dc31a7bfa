"""Synthesis of the planar worst-case rank-one control.

The optimal control S = cc^T in dimension 2 is parametrized by angles:
omega = (cos(theta/2), sin(theta/2)) for the state, c = (cos(phi/2),
sin(phi/2)) for the control axis, with the adjoint reduced to a single
scalar eta via p = eta * omega_perp.  Along an extremal the angle phi
obeys a pendulum equation whose half-periods are complete elliptic
integrals, which turns synthesis into one root-find plus closed forms:

  1. solve_shape:       K_plus/K_minus = a/b, by bracketed Newton in k = cos(phi0/2)  ->  (k, nu)
  2. solve_multipliers: closed form  ->  (alpha, beta = 1 - alpha, d)
  3. ExtremalParams.mu: the cost mu(a, b), one Carlson R_J

No ODE is solved: the trajectory on [0, T = a + b] is the pendulum's in
Jacobi functions (ExtremalTrajectory), and it extends to a 2T-periodic
signal by the fixed mirror D = diag(1, -1): phi runs from phi0 to
2 pi - phi0 on the canonical branch (sin theta(0) < 0), so the control on
[T, 2T] is D c(t - T) up to sign, which on angles is phi -> 2 pi - phi.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .signals import _GL_NODES, _GL_WEIGHTS, RankOneSignal, Segment, _gauss_legendre

__all__ = [
    "ExtremalParams", "ExtremalTrajectory", "ExtremalReport", "elliptic_K", "elliptic_E",
    "K_plus", "K_minus", "solve_shape", "solve_multipliers", "solve_params",
    "integrate_extremal", "solve_extremal", "mu", "extremal_angles",
    "build_optimal_control", "verify_extremal",
]

_SAMPLES = 2048  # angle samples of the synthesized half-period control
_RJ_TOL = 1e-16  # Carlson's relative truncation bound r for R_J
_CELLS = 512  # Gauss-Legendre cells of the closed form's one grid on [0, T]
# _RUNNING[q, j]: the coefficient of s^(5 - q) in int_0^s L_j, L_j the Lagrange basis of the
# 5 Gauss-Legendre nodes at s = x + 1 in [0, 2]; the constant term is 0, so the integral
# vanishes exactly at a cell's left edge
_RUNNING = np.stack([np.polyint(np.poly(np.delete(_GL_NODES + 1.0, j)))
                     / np.prod(_GL_NODES[j] - np.delete(_GL_NODES, j)) for j in range(5)], axis=-1)


def _agm(x: float) -> tuple[list[float], list[float], float]:
    """The AGM of (1, sqrt(1 - x^2)): its means a_n and gaps c_n, n = 0..N,
    and the companion sum csum with E = K (1 - csum), K = pi/(2 a_N)."""
    # Rounding can stall the gap c at half an ulp of 1 (~5.5e-17), above the
    # 1e-17 stop; each stalled pass would add 2^n c^2 of noise to csum, so the
    # loop also stops once |c| no longer shrinks.  The 60-pass cap is only a guard.
    a, b, c = 1.0, math.sqrt((1.0 - x) * (1.0 + x)), x
    means, gaps = [a], [c]
    for _ in range(60):
        if abs(c) < 1e-17:
            break
        a, b, c, c_prev = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b), c
        means.append(a)
        gaps.append(c)
        if abs(c) >= abs(c_prev):
            break
    return means, gaps, sum(0.5 * 2.0 ** n * c * c for n, c in enumerate(gaps))


def _agm_pair(x: float) -> tuple[float, float]:
    """(K(x), csum) with E = K (1 - csum) and K - E = K csum, no difference."""
    means, _, csum = _agm(x)
    return math.pi / (2.0 * means[-1]), csum


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
    K, csum = _agm_pair(x)
    return K * (1.0 - csum)


def _half_periods(k: float) -> tuple[float, float]:
    """(K_plus, K_minus) of the modulus k = cos(phi0/2) from one AGM pass."""
    if not 0.0 < k < 1.0:
        raise ValueError(f"need k = cos(phi0/2) in (0, 1), got {k}")
    K, csum = _agm_pair(k)
    return 2.0 * math.sqrt(2.0) * K * csum, 2.0 * math.sqrt(2.0) * K * (1.0 - csum)


def K_plus(phi0: float) -> float:
    """Pendulum half-period integral 2*sqrt(2)*(K(cos(phi0/2)) - E(cos(phi0/2)))."""
    return _half_periods(math.cos(0.5 * phi0))[0]


def K_minus(phi0: float) -> float:
    """Companion integral 2*sqrt(2)*E(cos(phi0/2))."""
    return _half_periods(math.cos(0.5 * phi0))[1]


def _carlson_rc(x: float, y: float) -> float:
    """Carlson's R_C(x, y) for x >= 0, y > 0 (DLMF 19.2.17-19), in forms
    that take no difference of nearby numbers."""
    if x < y:
        t = math.sqrt(y - x)
        return math.atan2(t, math.sqrt(x)) / t
    if y < x:  # log(1 + u) with u = (sqrt x - sqrt y + t)/sqrt y > 0
        sx, sy, t = math.sqrt(x), math.sqrt(y), math.sqrt(x - y)
        return math.log1p(t * (1.0 + t / (sx + sy)) / sy) / t
    return 1.0 / math.sqrt(x)


def _carlson_rj(x: float, y: float, z: float, p: float) -> float:
    """Carlson's R_J(x, y, z, p), x, y, z >= 0 (at most one zero), p > 0, by
    duplication to a relative error _RJ_TOL and the fifth-order series
    (DLMF 19.36(i); Carlson, Numer. Algorithms 10, 1995).  Each step's R_C
    takes arguments that are sums of positive terms."""
    A0 = A = (x + y + z + 2.0 * p) / 5.0
    dx, dy, dz = A0 - x, A0 - y, A0 - z
    Q = (0.25 * _RJ_TOL) ** (-1.0 / 6.0) * max(abs(dx), abs(dy), abs(dz), abs(A0 - p))
    total, fac = 0.0, 1.0  # fac = 4^-m
    while fac * Q >= A:
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * sy + sx * sz + sy * sz
        cx = (p * (sx + sy + sz) + sx * sy * sz) ** 2
        cy = p * (p + lam) ** 2
        total += fac * _carlson_rc(cx, cy)
        fac *= 0.25
        x, y, z, p, A = (0.25 * (v + lam) for v in (x, y, z, p, A))
    X, Y, Z = dx * fac / A, dy * fac / A, dz * fac / A
    P = -0.5 * (X + Y + Z)
    E2 = X * Y + X * Z + Y * Z - 3.0 * P * P
    E3 = X * Y * Z + 2.0 * E2 * P + 4.0 * P ** 3
    E4 = (2.0 * X * Y * Z + E2 * P + 3.0 * P ** 3) * P
    E5 = X * Y * Z * P * P
    series = (1.0 - 3.0 * E2 / 14.0 + E3 / 6.0 + 9.0 * E2 * E2 / 88.0 - 3.0 * E4 / 22.0
              - 9.0 * E2 * E3 / 52.0 + 3.0 * E5 / 26.0)
    return fac * series / (A * math.sqrt(A)) + 3.0 * total


@dataclass(frozen=True)
class ExtremalParams:
    """Synthesis parameters for the planar extremal with one oscillation arc.

    The shape is k = cos(phi0/2); beta = 1 - alpha is its own float, never
    formed as a difference.  Invariants enforced at construction: T = a + b,
    alpha + beta = 1, the frequency relation nu = sqrt((beta+d)/(2(alpha+d))),
    the half-period equations a = nu*K_plus and b = nu*K_minus at k, and the
    turning-angle relation k^2 = (1 + cos phi0)/2 = d(1+d)/((alpha+d)(beta+d)).
    """

    a: float
    b: float
    T: float
    alpha: float
    beta: float
    d: float
    nu: float
    k: float

    def __post_init__(self) -> None:
        if abs(self.T - (self.a + self.b)) > 1e-12 * (self.a + self.b):
            raise ValueError("T must equal a + b")
        if not (0.0 < self.alpha <= 1.0 and 0.0 < self.beta <= 1.0 and self.d > 0.0):
            raise ValueError("need alpha, beta in (0, 1] and d > 0")
        if abs(self.alpha + self.beta - 1.0) > 1e-15:
            raise ValueError(f"alpha + beta = {self.alpha + self.beta!r}, not 1")
        nu_chk = math.sqrt((self.beta + self.d) / (2 * (self.alpha + self.d)))
        if abs(nu_chk - self.nu) > 1e-10 * max(1.0, self.nu):
            raise ValueError(f"nu inconsistent with (alpha, d): {self.nu} vs {nu_chk}")
        k_plus, k_minus = _half_periods(self.k)
        k2_chk = self.d * (1 + self.d) / ((self.alpha + self.d) * (self.beta + self.d))
        if abs(k2_chk - self.k * self.k) > 5e-11:
            raise ValueError("k inconsistent with (alpha, d)")
        a_chk, b_chk = self.nu * k_plus, self.nu * k_minus
        if abs(a_chk - self.a) > 1e-8 * self.a or abs(b_chk - self.b) > 1e-8 * self.b:
            raise ValueError(f"(a, b) inconsistent with (nu, k): "
                             f"got ({a_chk}, {b_chk}) vs ({self.a}, {self.b})")

    @property
    def phi0(self) -> float:
        """The turning angle phi(0) = 2 acos(k), for reporting only: it loses k's
        relative precision as phi0 -> pi, so every computation reads k."""
        return 2.0 * math.acos(self.k)

    @property
    def mu(self) -> float:
        """The extremal's cost mu(a, b) = int_0^T cos^2((theta - phi)/2) dt in
        closed form: with den = beta + d, w = 2d/den and delta = 2 alpha/den,

            mu = (sqrt 2/3) w delta R_J(0, 2 alpha beta/den^2, w + delta, delta).

        The exact value lies below a.  A float above a by at most a * 1e-14
        is rounding, and a is returned; anything higher raises ArithmeticError.
        """
        al, be, d = self.alpha, self.beta, self.d
        den = be + d
        w, delta = 2.0 * d / den, 2.0 * al / den
        value = math.sqrt(2.0) / 3.0 * w * delta * _carlson_rj(
            0.0, 2.0 * al * be / (den * den), w + delta, delta)
        if value > self.a * (1.0 + 1e-14):
            raise ArithmeticError(f"mu = {value!r} exceeds a = {self.a!r} beyond rounding")
        return min(value, self.a)


def solve_shape(a: float, b: float) -> tuple[float, float]:
    """Solve K_plus/K_minus = a/b for the modulus k = cos(phi0/2), then nu = b/K_minus.

    The ratio is rho = csum/(1 - csum) of one AGM pass at k, strictly
    increasing from 0 (k -> 0, phi0 -> pi) to +inf (k -> 1, phi0 -> 0), and
    F(k) = log rho - log(a/b) has F'(k) = k/((1 - k^2) rho) + rho/k from the
    same pass.  Newton steps on F stay inside a bracket that each pass
    narrows and bisect when a step would leave it; the solve stops when a
    step no longer moves k or shrinks, or the bracket is a few ulps wide.
    The start sqrt(2t/(1 + 1.421 t)), t = a/b, is rho's small-k limit
    k^2/2 bent to hit a = b, the interior point phi0 = 0.8603; a solve takes
    about four passes.  The bracket is phi0 in [1e-3, pi - 1e-9], and a root
    outside it fails the residual check.
    """
    if not 0.0 < a <= b:
        raise ValueError(f"solve_shape needs 0 < a <= b, got ({a}, {b})")
    t = a / b
    log_t = math.log(t) if t > 0.0 else math.log(a) - math.log(b)
    lo, hi = math.cos(0.5 * (math.pi - 1e-9)), math.cos(0.5e-3)
    k = min(max(math.sqrt(2.0 * t / (1.0 + 1.421 * t)), lo), hi)
    prev = math.inf
    for _ in range(100):
        _, csum = _agm_pair(k)
        rho = csum / (1.0 - csum)
        F = math.log(rho) - log_t
        if F > 0.0:
            hi = k
        else:
            lo = k
        step = F / (k / ((1.0 - k) * (1.0 + k) * rho) + rho / k)
        if abs(step) >= prev or k - step == k:
            break
        prev = abs(step)
        k = k - step if lo < k - step < hi else 0.5 * (lo + hi)
        if hi - lo <= 4.0 * math.ulp(k):
            break
    k_plus, k_minus = _half_periods(k)
    nu = b / k_minus
    if abs(nu * k_plus - a) > 1e-10 * a:
        raise ArithmeticError(f"shape solve residual too large for (a, b)=({a}, {b})")
    return k, nu


def solve_multipliers(k: float, nu: float) -> tuple[float, float, float]:
    """The multipliers (alpha, beta = 1 - alpha, d) of (k = cos(phi0/2), nu), in closed form.

    The frequency and turning-angle relations solve exactly, with no
    difference of nearby numbers: with h = sin(phi0/2) = sqrt((1 - k)(1 + k)),
    s = alpha + d = 1/hypot(1 - 2nu^2 (k - h)(k + h), 4nu^2 k h) (cos and sin of phi0),
    d = 4nu^2 k^2 s^2/(1 + s(1 + 2nu^2)), and with X = alpha - beta = s(1 - 2nu^2)
    the larger of alpha, beta is (1 + |X|)/2 and the smaller 2nu^2 h^2 s^2 over it.
    """
    if not 0.0 < k < 1.0:
        raise ValueError(f"need k = cos(phi0/2) in (0, 1), got {k}")
    if nu <= 0:
        raise ValueError("nu must be positive")
    n2, h2 = 2.0 * nu * nu, (1.0 - k) * (1.0 + k)
    h = math.sqrt(h2)
    s = 1.0 / math.hypot(1.0 - n2 * (k - h) * (k + h), 2.0 * n2 * k * h)
    d = 2.0 * n2 * k * k * s * s / (1.0 + s * (1.0 + n2))
    X = s * (1.0 - n2)  # |X| < 1 exactly; a rounded |X| >= 1 means beta or alpha is under an ulp
    big = 0.5 * (1.0 + min(abs(X), 1.0))
    small = n2 * h2 * s * s / big
    return (big, small, d) if X >= 0.0 else (small, big, d)


def solve_params(a: float, b: float) -> ExtremalParams:
    """Full parameter solve (a, b) -> ExtremalParams."""
    k, nu = solve_shape(a, b)
    alpha, beta, d = solve_multipliers(k, nu)
    return ExtremalParams(a=a, b=b, T=a + b, alpha=alpha, beta=beta, d=d, nu=nu, k=k)


@dataclass(frozen=True)
class ExtremalTrajectory:
    """The extremal (theta, eta, phi) of params on [0, T] and its cost J, in closed form.

    With k = params.k = cos(phi0/2), m = k^2, w0 = 1/(nu sqrt 2) and sn, cn, dn of
    (w0 t - K(m) | m), the pendulum nu^2 phidot^2 + cos phi = cos phi0 runs
    from phi0 at t = 0 to 2 pi - phi0 at t = T (DLMF 22.19(i)):

        phi = pi + 2 asin(k sn),  c = (cos(phi/2), sin(phi/2)) = (-k sn, dn),
        eta = (beta + d) k w0 cn.

    M c = 0 is linear in (cos theta, sin theta), solved by e^{i theta} ~ (1/2 - i eta)
    e^{i phi/2} rho, rho = (alpha - 1/2) c1 - i (d + 1/2) c2, whose atan2 stays within
    (-pi, pi) on the canonical branch, sin theta(0) < 0: theta needs no unwrapping.
    """

    params: ExtremalParams

    def _jacobi(self, t):
        """(k, w0, sn, cn, dn) at t by the descending AGM (DLMF 22.20(ii))."""
        k, w0 = self.params.k, 1.0 / (self.params.nu * math.sqrt(2.0))
        means, gaps, _ = _agm(k)  # 2^N a_N u below, with u = w0 t - K and a_N K = pi/2
        ph = 2.0 ** (len(means) - 1) * (means[-1] * w0 * np.asarray(t, dtype=float) - 0.5 * math.pi)
        for a, c in zip(means[:0:-1], gaps[:0:-1]):
            ph = 0.5 * (ph + np.arcsin(c / a * np.sin(ph)))
        sn = np.sin(ph)
        # m <= 0.83 on 0 < a <= b, so the root cancels nothing (DLMF's quotient is 0/0 at t = 0)
        return k, w0, sn, np.cos(ph), np.sqrt(1.0 - (k * sn) ** 2)

    def _columns(self, jac) -> NDArray[np.float64]:
        """(theta, eta, phi) from the Jacobi functions jac = _jacobi(t)."""
        k, w0, sn, cn, dn = jac
        c1, c2, eta = -k * sn, dn, (self.params.beta + self.params.d) * k * w0 * cn
        p, q = 0.5 * c1 + eta * c2, 0.5 * c2 - eta * c1  # (1/2 - i eta) e^{i phi/2}
        r1, r2 = (self.params.alpha - 0.5) * c1, -(self.params.d + 0.5) * c2  # rho
        theta = np.arctan2(q * r1 + p * r2, p * r1 - q * r2)
        return np.stack([theta, eta, np.pi + 2.0 * np.arcsin(k * sn)], axis=-1)

    def _rates(self, jac) -> NDArray[np.float64]:
        """(theta', eta', phi') from jac = _jacobi(t), by sn' = cn dn,
        cn' = -sn dn, dn' = -m sn cn (DLMF 22.13) times w0.  theta' = phi'/2 +
        Im(rho'/rho) - 2 eta'/(1 + 4 eta^2), whose first two terms reach 1e8 at
        a = 1e-8 and nearly cancel; by dn^2 = 1 - m sn^2 and alpha + beta = 1
        they sum to (beta + d) k w0 cn (d + 1/2 - (alpha + d) m sn^2)/|rho|^2."""
        k, w0, sn, cn, dn = jac
        al, d, den = self.params.alpha, self.params.d, self.params.beta + self.params.d
        eta, eta_dot = den * k * w0 * cn, -den * k * w0 * w0 * sn * dn
        rho2 = ((al - 0.5) * k * sn) ** 2 + ((d + 0.5) * dn) ** 2
        theta_dot = (den * k * w0 * cn * (d + 0.5 - (al + d) * (k * sn) ** 2) / rho2
                     - 2.0 * eta_dot / (1.0 + 4.0 * eta * eta))
        return np.stack([theta_dot, eta_dot, 2.0 * k * w0 * cn], axis=-1)

    def columns(self, t) -> NDArray[np.float64]:
        """(theta, eta, phi) at t, shape (..., 3)."""
        return self._columns(self._jacobi(t))

    def _cost_rate(self, jac):
        """J' = cos^2((theta - phi)/2) from jac = _jacobi(t).  Projecting M c = 0
        on c and c_perp gives (q + 2 eta^2 + 2 eta r)/(1 + 4 eta^2), q = alpha c1^2 -
        d c2^2, r = (alpha + d) k sn dn, and the frequency and turning relations
        make q + 2 eta^2 the positive sum d (alpha sn^2 + (beta + d)(1 + 2d) cn^2)/(beta + d).
        q + eta sin(theta - phi) with an atan2 theta cancels where mu << T:
        J came out 4e-5 off at (1, 1e8) and 0.4 off at (1e4, 1e12)."""
        k, w0, sn, cn, dn = jac
        al, d, den = self.params.alpha, self.params.d, self.params.beta + self.params.d
        eta, r = den * k * w0 * cn, (al + d) * k * sn * dn
        return (d / den * (al * sn * sn + den * (1.0 + 2.0 * d) * cn * cn) + 2.0 * eta * r) \
            / (1.0 + 4.0 * eta * eta)

    @cached_property
    def _grid(self) -> tuple[NDArray, NDArray, tuple, NDArray]:
        """The one read of the closed form, (t, w, jac, rate): 0, the nodes of
        _CELLS-cell 5-point Gauss-Legendre on [0, T] and T, the nodes' weights, the
        Jacobi functions at t, and J' at the nodes by cell, shape (_CELLS, 5)."""
        T = self.params.T
        nodes, weights = _gauss_legendre(np.linspace(0.0, T, _CELLS + 1))
        t = np.concatenate([[0.0], nodes, [T]])
        jac = self._jacobi(t)
        return t, weights, jac, self._cost_rate(jac)[1:-1].reshape(_CELLS, 5)

    def cost(self, t):
        """J(t) = int_0^t cos^2((theta - phi)/2) ds on _grid: the cells before t's
        by Gauss-Legendre, plus the integral of its cell's 5-node interpolant of J'
        from the cell's left edge to t.  t outside [0, T] raises ValueError."""
        t = np.asarray(t, dtype=float)
        if not np.all((t >= 0.0) & (t <= self.params.T)):
            raise ValueError(f"cost needs t in [0, T = {self.params.T!r}]")
        rate = self._grid[3]
        step = self.params.T / _CELLS  # the cell width; edge i is i * step, as in linspace
        cell = np.minimum((t / step).astype(int), _CELLS - 1)
        s = 2.0 * (t - cell * step) / step  # x + 1 for x in the cell's [-1, 1]
        J = np.concatenate([[0.0], np.cumsum(rate @ _GL_WEIGHTS)])  # at the edges, per half width
        return 0.5 * step * (J[cell] + np.polyval(np.moveaxis((rate @ _RUNNING.T)[cell], -1, 0), s))

    def theta(self, t):
        return self.columns(t)[..., 0]

    def eta(self, t):
        return self.columns(t)[..., 1]

    def omega(self, t) -> NDArray[np.float64]:
        return RankOneSignal._units(self.theta(t))

    def c(self, t) -> NDArray[np.float64]:
        """The control axis (cos(phi/2), sin(phi/2)) = (-k sn, dn) at t, shape (..., 2)."""
        k, _, sn, _, dn = self._jacobi(t)
        return np.stack([-k * sn, dn], axis=-1)

    @property
    def mu(self) -> float:
        """The cost J(T) over the window, _grid's quadrature of J'."""
        return float(self._grid[1] @ self._grid[3].ravel())


def integrate_extremal(params: ExtremalParams) -> ExtremalTrajectory:
    """The extremal of params on [0, T] in closed form; only its cost is a quadrature."""
    return ExtremalTrajectory(params)


def solve_extremal(a: float, b: float) -> tuple[ExtremalParams, ExtremalTrajectory]:
    """Solve the pendulum extremal for window bounds 0 < a <= b."""
    params = solve_params(a, b)
    return params, integrate_extremal(params)


def mu(a: float, b: float) -> float:
    """Optimal per-window contraction mu(a, b) <= a, 0 < a <= b, by ExtremalParams.mu."""
    return solve_params(a, b).mu


def extremal_angles(a: float, b: float) -> tuple[float, NDArray, NDArray]:
    """(mu, theta, phi) of the extremal for window bounds 0 < a <= b: its cost and its
    state and control angles at _SAMPLES uniform times from 0 to exactly T = a + b."""
    params, traj = solve_extremal(a, b)
    theta, _, phi = traj.columns(np.linspace(0.0, params.T, _SAMPLES)).T
    return params.mu, theta, phi


def build_optimal_control(a: float, b: float) -> tuple[RankOneSignal, NDArray, float]:
    """Synthesize the 2T-periodic worst-case control for window bounds 0 < a <= b.

    One segment holds the pendulum's angles over its full period 2T: the
    extremal's phi on [0, T], then 2 pi - phi on [T, 2T], which is the
    pendulum's own second half (sn(u + 2K) = -sn(u), so phi(t + T) =
    2 pi - phi(t)) and the image of the first under the mirror D = diag(1, -1).
    The seam is continuous iff phi(0) + phi(T) = 2 pi; a miss above 2e-6
    (1e-6 on c) raises ArithmeticError.

    Returns (signal, omega0, mu): the rank-one angle signal with period 2T,
    the worst initial direction, and the per-window cost mu = J over [0, T].
    """
    mu, theta, phis = extremal_angles(a, b)
    T = a + b
    seam = abs(float(phis[0] + phis[-1]) - 2.0 * np.pi)
    if seam > 2e-6:
        raise ArithmeticError(f"seam mismatch: |phi(0) + phi(T) - 2 pi| = {seam:.2e}")
    seg = Segment(0.0, 2 * T, np.concatenate([phis, 2.0 * np.pi - phis[1:]]))
    return RankOneSignal((seg,), dim=2, period=2 * T), RankOneSignal._unit(theta[0]), mu


@dataclass(frozen=True)
class ExtremalReport:
    """Named extremality residuals with the closed-form cost.  PRIMARY names
    every residual, and passed holds when all of them are below tol."""

    residuals: dict[str, float]
    mu: float
    passed: bool

    PRIMARY = ("seam", "transversality", "Mc", "spectrum_drift", "gram",
               "quasi_periodicity", "cost", "ode")


def verify_extremal(traj: ExtremalTrajectory, params: ExtremalParams,
                    tol: float = 1e-6) -> ExtremalReport:
    """Check the full set of extremality conditions along a trajectory.

    The closed form is read once, on traj's _grid: the Gram's 2560
    Gauss-Legendre nodes on [0, T] plus t = 0 and t = T.  There the matrix
    M = diag(alpha, -d) - (omega p^T + p omega^T + omega omega^T) must kill the control axis
    (Mc = 0) with constant spectrum {alpha-d-1, 0}, computed from its entries
    as (M11 + M22)/2 -+ hypot((M11 - M22)/2, M12), and ode holds traj._rates
    against the extremal ODE thetadot = sin(theta - phi),
    etadot = -(sin(theta - phi) + 2 eta cos(theta - phi))/2, phidot = 2 eta/(beta + d)
    on the columns, each miss over 1 + |right-hand side| (rates reach 1e8 at a = 1e-8).
    At the ends the adjoint p = eta omega_perp must vanish (transversality),
    the seam needs c(T) = +-D c(0) for the fixed mirror D = diag(1, -1), and
    omega(T) must be +-D omega(0) (quasi_periodicity).  The Gram of c over
    the interior nodes must equal diag(a, b), and the cost |J(T) - mu|/mu,
    J(T) = traj.mu the same grid's quadrature of traj's cost rate, must vanish
    against the closed-form params.mu.
    """
    al, d, mu = params.alpha, params.d, params.mu  # mu is one R_J per read
    _, wq, jac, _ = traj._grid  # the one Jacobi evaluation
    th, eta, ph = traj._columns(jac).T
    co, so = np.cos(0.5 * th), np.sin(0.5 * th)  # omega; omega_perp = (-so, co)
    cc, sc = np.cos(0.5 * ph), np.sin(0.5 * ph)  # c

    # M = diag(alpha, -d) - (omega p^T + p omega^T + omega omega^T), p = eta omega_perp
    cs2 = 2.0 * co * so
    M11 = al + eta * cs2 - co * co
    M12 = -eta * (co * co - so * so) - co * so
    M22 = -d - eta * cs2 - so * so
    Mc1, Mc2 = M11 * cc + M12 * sc, M12 * cc + M22 * sc
    mid, rad = 0.5 * (M11 + M22), np.hypot(0.5 * (M11 - M22), M12)

    # the extremal ODE's right-hand side on the columns
    delta = th - ph
    th_dot = np.sin(delta)
    rhs = np.stack([th_dot, -0.5 * (th_dot + 2.0 * eta * np.cos(delta)),
                    2.0 * eta / (params.beta + d)], axis=-1)
    ode = np.abs(traj._rates(jac) - rhs) / (1.0 + np.abs(rhs))

    # Gram of c = (-k sn, dn) over [0, T] at the interior nodes
    k, _, sn, _, dn = jac
    cq = np.stack([-k * sn[1:-1], dn[1:-1]], axis=-1)
    G = (cq.T * wq) @ cq

    # |s D c(0) - c(T)| for D = diag(1, -1) and either sign s
    seam = min(math.hypot(cc[0] - s * cc[-1], sc[0] + s * sc[-1]) for s in (1.0, -1.0))
    residuals = {
        "seam": seam,
        "transversality": float(max(abs(eta[0]), abs(eta[-1]))),
        "Mc": float(np.max(np.hypot(Mc1, Mc2))),
        "spectrum_drift": float(max(np.max(np.abs(mid - rad - (al - d - 1.0))),
                                    np.max(np.abs(mid + rad)))),
        "gram": float(np.max(np.abs(G - np.diag([params.a, params.b]))) / (params.a + params.b)),
        "quasi_periodicity": float(abs(co[-1] ** 2 - co[0] ** 2)),
        "cost": abs(traj.mu - mu) / mu,
        "ode": float(np.max(ode)),
    }
    passed = all(value < tol for value in residuals.values())
    return ExtremalReport(residuals=residuals, mu=mu, passed=passed)
