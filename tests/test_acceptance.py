"""Acceptance gate: ten criteria, each printing one PASS/FAIL line.

Every criterion runs at its stated tolerance and asserts its runtime
budget.  Values are never loosened to make a run green; a failure here
means the build does not meet its contract.
"""
from __future__ import annotations

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from peflow import extremal2d, flow, gain, gpe, oracle, signals


def report(n: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n} failed: {detail}"


def solve_mu(a: float, b: float) -> float:
    return extremal2d.mu(a, b)


def test_acceptance_01_mu_never_exceeds_a():
    worst_gap, worst_time = -math.inf, 0.0
    for a in (0.1, 0.5, 1.0):
        for mult in (1.0, 2.0, 5.0, 10.0):
            t0 = time.perf_counter()
            mu = solve_mu(a, a * mult)
            dt = time.perf_counter() - t0
            worst_gap = max(worst_gap, mu - a)
            worst_time = max(worst_time, dt)
    ok = worst_gap <= 1e-6 and worst_time < 10.0
    report(1, ok, f"max mu - a = {worst_gap:.3e}, slowest solve {worst_time:.2f}s")


def test_acceptance_02_large_ratio_scaling():
    t0 = time.perf_counter()
    ratios = [solve_mu(1.0, b) * b * b for b in (10.0, 20.0, 50.0, 100.0)]
    dt = time.perf_counter() - t0
    spread = max(ratios) / min(ratios)
    ok = (all(0.05 <= r <= 20.0 for r in ratios) and spread < 3.0 and dt < 30.0)
    report(2, ok, f"mu*b^2/a in [{min(ratios):.2f}, {max(ratios):.2f}], "
                  f"spread x{spread:.2f}, {dt:.2f}s")


def test_acceptance_03_extremal_certificates():
    t0 = time.perf_counter()
    worst = {"residual": 0.0, "gram": 0.0, "eta": 0.0, "omega_sq": 0.0}
    for a, b in ((1.0, 3.0), (1.0, 5.0), (0.5, 4.0)):
        params = extremal2d.solve_params(a, b)
        traj = extremal2d.integrate_extremal(params)
        cert = extremal2d.verify_extremal(traj, params, tol=1e-6)
        worst["residual"] = max(worst["residual"],
                                max(cert.residuals[k]
                                    for k in extremal2d.ExtremalReport.PRIMARY))
        sig, om0, _ = extremal2d.build_optimal_control(a, b)
        eigs = np.linalg.eigvalsh(signals.gram(sig, 0.0, a + b))
        worst["gram"] = max(worst["gram"],
                            max(abs(eigs[0] - a), abs(eigs[-1] - b)) / (a + b))
        worst["eta"] = max(worst["eta"], abs(traj.eta(0.0)),
                           abs(traj.eta(params.T)))
        omsq = traj.omega(0.0) ** 2 - traj.omega(params.T) ** 2
        worst["omega_sq"] = max(worst["omega_sq"], float(np.max(np.abs(omsq))))
    dt = time.perf_counter() - t0
    ok = (worst["residual"] < 1e-6 and worst["gram"] < 1e-6
          and worst["eta"] < 1e-8 and worst["omega_sq"] < 1e-8 and dt < 30.0)
    report(3, ok, f"residual {worst['residual']:.1e}, gram {worst['gram']:.1e}, "
                  f"eta {worst['eta']:.1e}, omega^2 {worst['omega_sq']:.1e}, "
                  f"{dt:.1f}s")


def test_acceptance_04_oracle_brackets_extremal():
    t0 = time.perf_counter()
    result = oracle.brute_force_mu2(1.0, 3.0, N=40, n_seeds=20)
    dt = time.perf_counter() - t0
    mu_ext = solve_mu(1.0, 3.0)
    ok = (mu_ext - 1e-3 <= result.mu_hat <= 1.05 * mu_ext and dt < 60.0)
    report(4, ok, f"mu_hat {result.mu_hat:.6f} vs mu {mu_ext:.6f}, "
                  f"residual {result.constraint_residual:.1e}, {dt:.1f}s")


def test_acceptance_05_monodromy_matches_mu():
    a, b = 1.0, 3.0
    sig, om0, mu = extremal2d.build_optimal_control(a, b)
    rep = flow.decay_rate(sig, tol=1e-11)
    rel_contr = abs(rep.contraction_per_period - math.exp(-2 * mu)) / math.exp(-2 * mu)
    rel_rate = abs(rep.rate - mu / (a + b)) / (mu / (a + b))
    ok = rel_contr < 1e-6 and rel_rate < 1e-6
    report(5, ok, f"contraction rel err {rel_contr:.1e}, rate rel err {rel_rate:.1e}")


def test_acceptance_06_time_homogeneity():
    a, b = 1.0, 3.0
    sig, _, mu = extremal2d.build_optimal_control(a, b)
    T_nat = a + b
    products = []
    for T in (0.5, 1.0, 2.0):
        fast = signals.time_rescale(sig, T_nat / T)
        products.append(flow.decay_rate(fast, tol=1e-11).rate * T)
    rel = (max(products) - min(products)) / min(products)
    # bounds in closed form are degree-one in T, exactly, including the
    # simulated ratio which only carries T through one final multiply
    r1 = gain.gain_estimate(1.0, 3.0, 1.0, k_periods=8)
    r2 = gain.gain_estimate(1.0, 3.0, 2.0, k_periods=8)
    exact = (r2.lower == 2.0 * r1.lower and r2.upper == 2.0 * r1.upper
             and r2.simulated == 2.0 * r1.simulated)
    ok = rel < 1e-6 and exact
    report(6, ok, f"rate*T spread {rel:.1e}, linear T scaling exact: {exact}")


def test_acceptance_07_gain_sandwich():
    t0 = time.perf_counter()
    rep = gain.gain_estimate(1.0, 3.0, 1.0, k_periods=50)
    dt = time.perf_counter() - t0
    gap = abs(rep.simulated - rep.lower) / rep.lower
    ok = (gap <= 0.02 and rep.lower <= rep.simulated * 1.02
          and rep.simulated <= rep.upper and dt < 60.0)
    report(7, ok, f"simulated {rep.simulated:.6f} vs lower {rep.lower:.6f} "
                  f"(gap {100 * gap:.2f}%), upper {rep.upper:.4f}, {dt:.1f}s")


def test_acceptance_08_gpe_schedules():
    t0 = time.perf_counter()
    L = 50
    conv = gpe.GPESchedule(tuple(1.0 / l ** 2 for l in range(1, L + 1)),
                           tuple(1.0 for _ in range(L)),
                           tuple(float(l) for l in range(1, L + 1)),
                           tag="converges")
    asym = gpe.asymptotic_norm(conv)
    predicted = math.exp(-sum(asym.mu_seq))
    conv_err = abs(asym.norms[-1] - predicted) / predicted
    plateau = asym.norms[-1]

    div = gpe.GPESchedule.constant(1.0, 1.0, 1.0, L, tag="diverges")
    asym_d = gpe.asymptotic_norm(div)
    dt = time.perf_counter() - t0
    ok = (conv_err < 0.01 and plateau > 0.1
          and asym_d.norms[-1] < math.exp(-10.0) and dt < 120.0)
    report(8, ok, f"convergent err {conv_err:.1e} at plateau {plateau:.4f}, "
                  f"divergent norm {asym_d.norms[-1]:.2e}, {dt:.1f}s")


def test_acceptance_09_elliptic_kernels():
    e_end = max(abs(extremal2d.elliptic_K(0.0) - math.pi / 2),
                abs(extremal2d.elliptic_E(0.0) - math.pi / 2),
                abs(extremal2d.elliptic_E(1.0) - 1.0))
    quad_err = 0.0
    for x in np.arange(0.1, 0.95, 0.1):
        qk = quad(lambda t: 1 / math.sqrt(1 - (x * math.sin(t)) ** 2),
                  0, math.pi / 2, epsabs=1e-13, epsrel=1e-13)[0]
        qe = quad(lambda t: math.sqrt(1 - (x * math.sin(t)) ** 2),
                  0, math.pi / 2, epsabs=1e-13, epsrel=1e-13)[0]
        quad_err = max(quad_err, abs(extremal2d.elliptic_K(x) - qk),
                       abs(extremal2d.elliptic_E(x) - qe))
    grid = np.linspace(1e-3, math.pi - 1e-6, 100)
    vals = [extremal2d.K_plus(p) / extremal2d.K_minus(p) for p in grid]
    monotone = all(u > v for u, v in zip(vals, vals[1:]))
    ok = e_end < 1e-12 and quad_err < 1e-10 and monotone
    report(9, ok, f"endpoint err {e_end:.1e}, quadrature err {quad_err:.1e}, "
                  f"ratio strictly decreasing: {monotone}")


def test_acceptance_10_closed_form_cost():
    worst = 0.0
    for a, b in ((1.0, 3.0), (1.0, 10.0)):
        params = extremal2d.solve_params(a, b)
        mu_int = extremal2d.integrate_extremal(params).mu
        mu_cf = params.mu
        worst = max(worst, abs(mu_cf - mu_int) / mu_int)
    ok = worst < 1e-6
    report(10, ok, f"closed form vs integrated rel err {worst:.1e}")
