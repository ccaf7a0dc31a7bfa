"""Brute-force estimation of the planar optimal cost mu(a, b, 2).

Independent of the pendulum synthesis: the control is piecewise constant,
one unit vector c_j per equal subinterval of [0, a+b], parametrized by a
single direction angle each.  Through a constant segment the flow is the
exact rank-one map x_{j+1} = (I + (e^{-dt} - 1) c_j c_j^T) x_j, so
J = -log|x_N| is a closed-form recursion, and a backward (adjoint) pass
gives its exact gradient in (omega0 angle, c angles) in O(N).  J is
minimized by multi-started SLSQP with that gradient, coarse-to-fine in
the segment count.

With the trace normalized (T = a + b), the 2x2 window Gram has eigenvalue
pair (lam, T - lam) and lam = T/2 - (dt/2)|sum_j exp(2i psi_j)|, so
admissibility a*I <= G <= b*I is the single smooth inequality
rho^2 - |sum_j exp(2i psi_j)|^2 >= 0 with rho = (b - a)/dt, handed to
SLSQP with its exact Jacobian.  rho is shrunk by a small margin so the
optimum lies strictly inside the admissible set.  An optimizer end still
outside it has one repair for every a <= b: the last two directions are
re-aimed to bring the phasor sum inside |sum_j exp(2i psi_j)| <= rho.

The final reported value is recomputed with flow.cost_J on the assembled
signal so the cost definition has a single source of truth; flow.propagate
steps through constant segments exactly, so it agrees with the closed-form
recursion to rounding.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.typing import NDArray
from scipy.optimize import minimize

from .flow import cost_J
from .signals import RankOneSignal, Segment

__all__ = ["OracleResult", "brute_force_mu2"]

FEAS_TOL = 1e-6
_MARGIN = 2e-9  # slack in b - a kept by the optimizer's constraint


@dataclass(frozen=True)
class OracleResult:
    """Best control found by the direct search.

    mu_hat is an upper estimate of mu(a, b, 2) (a lower estimate of the
    true value only up to discretization in N); control is the winning
    piecewise-constant signal, feasible within constraint_residual.
    """

    mu_hat: float
    control: RankOneSignal
    omega0: NDArray[np.float64]
    constraint_residual: float
    seeds_used: int
    nfev: int  # objective evaluations summed over the optimizer calls


class _Funcs(NamedTuple):
    lam_min: Callable
    cost_grad: Callable
    constraint: dict


def _make_funcs(a: float, b: float, N: int) -> _Funcs:
    """Closed-form cost, gradient and feasibility evaluators for N segments.

    Vectors z hold the omega0 angle first, then the N direction angles.
    """
    T = a + b
    dt = T / N
    decay = math.exp(-dt) - 1.0
    half = 0.5 * T
    # rho shrunk by 2e-9/dt puts the optimum at lam_min >= a + 1e-9 (or
    # within 1e-9 below a when b - a < 2e-9), so a boundary point rarely
    # needs the repair
    rho2 = ((b - a - _MARGIN) / dt) ** 2

    def lam_min(psis: NDArray) -> float:
        return half - 0.5 * dt * abs(np.exp(2j * psis).sum())

    def cost_grad(z: NDArray) -> tuple[float, NDArray]:
        """J and its exact gradient by the adjoint recursion
        lambda_N = -x_N / |x_N|^2, lambda_j = M_j lambda_{j+1}."""
        cs, sn = np.cos(z).tolist(), np.sin(z).tolist()
        xr, xi = cs[0], sn[0]
        proj = []  # (c_j . x_j, c_j' . x_j), c_j' = dc_j/dpsi_j
        for cr, ci in zip(cs[1:], sn[1:]):
            p = xr * cr + xi * ci
            proj.append((p, xi * cr - xr * ci))
            xr += decay * p * cr
            xi += decay * p * ci
        n2 = xr * xr + xi * xi
        lr, li = -xr / n2, -xi / n2
        grad = [0.0] * len(cs)
        for j in range(len(proj), 0, -1):
            cr, ci = cs[j], sn[j]
            p, q = proj[j - 1]
            lc = lr * cr + li * ci
            grad[j] = decay * ((li * cr - lr * ci) * p + lc * q)
            lr += decay * lc * cr
            li += decay * lc * ci
        grad[0] = li * cs[0] - lr * sn[0]
        return -0.5 * math.log(n2), np.array(grad)

    def gap(z: NDArray) -> float:
        return rho2 - abs(np.exp(2j * z[1:]).sum()) ** 2

    def gap_jac(z: NDArray) -> NDArray:
        e = np.exp(2j * z[1:])
        return np.concatenate([[0.0], 4.0 * (e.sum().conjugate() * e).imag])

    return _Funcs(lam_min, cost_grad,
                  {"type": "ineq", "fun": gap, "jac": gap_jac})


def _signal_from_angles(psis: NDArray, T: float) -> RankOneSignal:
    # direction angle psi -> stored half-angle convention phi = 2 psi
    N = len(psis)
    segs = tuple(Segment(j * T / N, (j + 1) * T / N, np.array([2.0 * psis[j]]))
                 for j in range(N))
    return RankOneSignal(segs, dim=2)


def _repair_last_pair(psis: NDArray, a: float, T: float) -> NDArray | None:
    """Re-aim the last two directions to place the Gram exactly inside [a, b].

    With dt = T/N, lam_min = T/2 - (dt/2)|sum_j exp(2i psi_j)|, so
    feasibility is |sum_j exp(2i psi_j)| <= (b-a)/dt.  Two free unit
    phasors can cancel any excess up to magnitude 2.
    """
    N = len(psis)
    if N < 2:
        return None
    dt = T / N
    u = complex(np.sum(np.exp(2j * psis[:-2])))
    rho_max = max(0.0, (T - 2.0 * a) / dt) * (1.0 - 1e-12)
    target = u / abs(u) * min(abs(u), rho_max) if abs(u) > 0 else 0.0j
    z = target - u
    if abs(z) > 2.0:
        return None
    spread = math.acos(min(1.0, abs(z) / 2.0))
    base = np.angle(z) if abs(z) > 0 else 0.0
    out = psis.copy()
    out[-2] = 0.5 * (base + spread)
    out[-1] = 0.5 * (base - spread)
    return out


def _upsample(z: NDArray, n_new: int) -> NDArray:
    """Piecewise-constant refinement of the angle vector (first entry is omega0)."""
    psis = z[1:]
    idx = (np.arange(n_new) * len(psis)) // n_new
    return np.concatenate([[z[0]], psis[idx]])


def _levels(N: int) -> list[int]:
    out = [N]
    while out[-1] // 2 >= 5:
        out.append(out[-1] // 2)
    return out[::-1]


def brute_force_mu2(a: float, b: float, N: int = 40, n_seeds: int = 20,
                    rng_seed: int = 0) -> OracleResult:
    """Direct minimization of J over piecewise-constant rank-one controls.

    Coarse-to-fine: each seed is optimized by SLSQP at a ladder of segment
    counts (ending at N), upsampling the best point between levels.  An
    end with lam_min < a is repaired by _repair_last_pair, and a seed still
    short of a - FEAS_TOL is skipped.
    """
    if not 0.0 < a <= b:
        raise ValueError("need 0 < a <= b")
    if N < 4:
        raise ValueError("need N >= 4")
    T = a + b
    rng = np.random.default_rng(rng_seed)
    levels = _levels(N)
    funcs = {Nl: _make_funcs(a, b, Nl) for Nl in levels}

    best_z: NDArray | None = None
    best_cost = np.inf
    used = 0
    nfev = 0
    for _ in range(n_seeds):
        z = rng.uniform(0.0, 2.0 * np.pi, size=levels[0] + 1)
        for Nl in levels:
            if len(z) - 1 != Nl:
                z = _upsample(z, Nl)
            res = minimize(funcs[Nl].cost_grad, z, method="SLSQP", jac=True,
                           constraints=[funcs[Nl].constraint],
                           options={"ftol": 1e-12})
            z = res.x
            nfev += res.nfev

        lamN = funcs[N].lam_min
        if lamN(z[1:]) < a:
            fixed = _repair_last_pair(z[1:], a, T)
            if fixed is None or lamN(fixed) < a - FEAS_TOL:
                continue
            z = np.concatenate([[z[0]], fixed])
        used += 1
        c = funcs[N].cost_grad(z)[0]
        if c < best_cost:
            best_cost = c
            best_z = z

    if best_z is None:
        raise RuntimeError(f"no feasible local minimum over {n_seeds} seeds "
                           f"for (a, b, N) = ({a}, {b}, {N})")

    lam = funcs[N].lam_min(best_z[1:])
    residual = max(0.0, a - lam, (T - lam) - b)
    control = _signal_from_angles(best_z[1:], T)
    omega0 = np.array([math.cos(best_z[0]), math.sin(best_z[0])])
    mu_hat = cost_J(control, omega0, T=T)
    return OracleResult(mu_hat=float(mu_hat), control=control, omega0=omega0,
                        constraint_residual=float(residual), seeds_used=used,
                        nfev=nfev)
