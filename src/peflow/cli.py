"""Command-line front end for batch reproduction of the bounds.

Subcommands: mu, extremal, oracle, decay, gain, gpe, verify.  Output is
JSON (default) or CSV via --format, written atomically to --out or to
stdout.  Exit status: 0 when every check passes, 1 when a check fails or
a pipeline error is reported, 2 for invalid flags.

JSON documents always carry the full effective config under "config";
floats use the shortest round-trip decimal form, so identical configs
give byte-identical outputs.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__, extremal2d, flow, gain, gpe, oracle, signals

__all__ = ["RunConfig", "main"]

_ORACLE_RNG_SEED = 0  # fixed for byte-for-byte reproducibility


class _UsageError(Exception):
    """Flag combination the subcommand cannot accept; maps to exit 2."""


@dataclass(frozen=True)
class RunConfig:
    """Effective parameters of one CLI invocation."""

    subcommand: str
    a: float | None = None
    b: float | None = None
    T: float | None = None
    n: int = 2
    tol: float | None = None
    seeds: int = 20
    segments: int = 40
    periods: int | None = None
    signal: str | None = None
    out: str | None = None
    format: str = "json"

    def __post_init__(self) -> None:
        for name in ("a", "b", "T", "tol"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.a is not None and self.b is not None and not 0 < self.a <= self.b:
            raise ValueError(f"need 0 < a <= b, got ({self.a}, {self.b})")
        if self.T is not None and self.T <= 0:
            raise ValueError("T must be positive")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")
        if self.segments < 4:
            raise ValueError("segments must be >= 4")
        if self.periods is not None and self.periods < 1:
            raise ValueError("periods must be >= 1")
        if self.format not in ("json", "csv"):
            raise ValueError(f"unknown format {self.format!r}")


def _jsonable(obj):
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    try:
        signals.write_atomic(out, text)
    except OSError as exc:
        raise _UsageError(f"cannot write --out {out}: {exc}") from exc


def _emit_json(doc: dict, cfg: RunConfig) -> None:
    doc = {"config": asdict(cfg), **doc}
    _emit(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False,
                     default=_jsonable), cfg.out)


def _emit_csv(header: list[str], rows, cfg: RunConfig) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _emit(buf.getvalue(), cfg.out)


def _cmd_mu(cfg: RunConfig) -> int:
    if cfg.a is None or cfg.b is None:
        raise _UsageError("mu requires --a and --b")
    if cfg.n > 2:
        raise _UsageError("mu synthesis is available for n <= 2 only")
    mu = cfg.a if cfg.n == 1 else extremal2d.mu(cfg.a, cfg.b)
    passed = mu <= cfg.a + 1e-6
    _emit_json({
        "mu": mu,
        "ratio": mu * (1.0 + cfg.b ** 2) / cfg.a,
        "upper_bound_a": cfg.a,
        "passed": passed,
    }, cfg)
    return 0 if passed else 1


def _cmd_extremal(cfg: RunConfig) -> int:
    if cfg.a is None or cfg.b is None:
        raise _UsageError("extremal requires --a and --b")
    params, traj = extremal2d.solve_extremal(cfg.a, cfg.b)
    tol = cfg.tol if cfg.tol is not None else 1e-6
    report = extremal2d.verify_extremal(traj, params, tol=tol)
    if cfg.format == "csv":
        ts = np.linspace(0.0, params.T, 2001)
        rows = np.column_stack([ts, traj.theta(ts), traj.eta(ts), traj.phi(ts),
                                traj.cost_at(ts)])
        _emit_csv(["t", "theta", "eta", "phi", "cost"],
                  [[repr(float(v)) for v in row] for row in rows], cfg)
    else:
        _emit_json({
            "params": asdict(params),
            "mu": report.mu,
            "residuals": report.residuals,
            "passed": report.passed,
        }, cfg)
    return 0 if report.passed else 1


def _cmd_oracle(cfg: RunConfig) -> int:
    if cfg.a is None or cfg.b is None:
        raise _UsageError("oracle requires --a and --b")
    result = oracle.brute_force_mu2(cfg.a, cfg.b, N=cfg.segments, n_seeds=cfg.seeds,
                                    rng_seed=_ORACLE_RNG_SEED)
    mu_ref = extremal2d.mu(cfg.a, cfg.b)
    passed = mu_ref - 1e-3 <= result.mu_hat <= 1.05 * mu_ref
    _emit_json({
        "mu_hat": result.mu_hat,
        "mu_extremal": mu_ref,
        "constraint_residual": result.constraint_residual,
        "seeds_used": result.seeds_used,
        "omega0": result.omega0,
        "control": signals.signal_to_dict(result.control),
        "passed": passed,
    }, cfg)
    return 0 if passed else 1


def _cmd_decay(cfg: RunConfig) -> int:
    n_periods = cfg.periods if cfg.periods is not None else 10
    if cfg.signal is not None:
        sig = signals.load_signal(cfg.signal)
        mu = None
    else:
        if cfg.a is None or cfg.b is None:
            raise _UsageError("decay requires --signal, or --a and --b")
        sig, _, mu = extremal2d.build_optimal_control(cfg.a, cfg.b)
    tol = cfg.tol if cfg.tol is not None else 1e-9
    report = flow.decay_rate(sig, n_periods=n_periods, tol=tol)
    passed = report.rate >= -1e-12
    doc = {"decay": asdict(report), "passed": passed}
    if mu is not None:
        doc["mu"] = mu
        doc["expected_rate"] = 2.0 * mu / sig.period
    _emit_json(doc, cfg)
    return 0 if passed else 1


def _cmd_gain(cfg: RunConfig) -> int:
    if cfg.a is None or cfg.b is None:
        raise _UsageError("gain requires --a and --b")
    T = cfg.T if cfg.T is not None else 1.0
    k = cfg.periods if cfg.periods is not None else 50
    if cfg.format == "csv":
        c2, omega_star, mu_half = extremal2d.build_optimal_control(cfg.a / 2, cfg.b / 2)
        u = gain.worst_input(c2, omega_star, mu_half)
        tol = cfg.tol if cfg.tol is not None else 1e-9
        _, trace = gain.simulate_gain(c2, u, k, tol=tol)
        _emit_csv(["t", "x_norm", "u_norm"],
                  [[repr(float(v)) for v in row] for row in trace], cfg)
        return 0
    report = gain.gain_estimate(cfg.a, cfg.b, T, k_periods=k)
    # the worst-input ratio approaches its limit, the lower bound, from below
    passed = (report.lower <= report.simulated * (1.0 + gain.CONVERGENCE_TOL)
              and report.simulated <= report.upper * (1.0 + 1e-3)
              and report.lower <= report.upper)
    _emit_json({"gain": asdict(report), "passed": passed}, cfg)
    return 0 if passed else 1


def _cmd_gpe(cfg: RunConfig) -> int:
    if cfg.signal is not None:
        schedule = gpe.load_schedule(cfg.signal)
    else:
        if cfg.a is None or cfg.b is None:
            raise _UsageError("gpe requires --signal (schedule JSON), or --a and --b")
        L = cfg.periods if cfg.periods is not None else 50
        T = cfg.T if cfg.T is not None else 1.0
        schedule = gpe.GPESchedule.constant(cfg.a, cfg.b, T, L)
    L = schedule.length
    sums, verdict = gpe.series_criterion(schedule)
    sig, omega0 = gpe.build_gpe_signal(schedule)
    asym = gpe.asymptotic_norm(schedule, sig, omega0)
    passed = asym.max_rel_dev <= 0.01
    if cfg.format == "csv":
        rows = [[str(ell), repr(asym.taus[ell]), repr(asym.norms[ell]),
                 repr(asym.predicted_norms[ell]), repr(sums[ell])]
                for ell in range(L)]
        _emit_csv(["ell", "tau", "norm", "predicted_norm", "partial_sum"], rows, cfg)
    else:
        _emit_json({
            "verdict": verdict,
            "partial_sums": sums,
            "taus": list(asym.taus),
            "norms": list(asym.norms),
            "predicted_norms": list(asym.predicted_norms),
            "mu_seq": list(asym.mu_seq),
            "limit_estimate": asym.limit_estimate,
            "max_rel_dev": asym.max_rel_dev,
            "passed": passed,
        }, cfg)
    return 0 if passed else 1


def _cmd_verify(cfg: RunConfig) -> int:
    if cfg.signal is None:
        raise _UsageError("verify requires --signal")
    if cfg.a is None or cfg.b is None:
        raise _UsageError("verify requires --a and --b")
    sig = signals.load_signal(cfg.signal)
    T = cfg.T if cfg.T is not None else cfg.a + cfg.b
    tol = cfg.tol if cfg.tol is not None else 1e-6

    window_report = signals.verify_pe(sig, cfg.a, cfg.b, T, [sig.t_start], tol=tol)[0]
    checks = {"verify_int": asdict(window_report)}
    passed = window_report.satisfies

    # windows on the T-lattice: the synthesized worst cases meet the bounds
    # exactly there, while intermediate shifts are only PE at window 2T
    span = sig.horizon - sig.t_start
    if sig.period is not None:
        n_win = max(1, int(round(sig.period / T)))
    else:
        n_win = max(1, int(span // T))
    starts = [sig.t_start + j * T for j in range(n_win)]
    pe_reports = signals.verify_pe(sig, cfg.a, cfg.b, T, starts, tol=tol)
    checks["verify_pe"] = [asdict(r) for r in pe_reports]
    passed = passed and all(r.satisfies for r in pe_reports)

    # extremal certificate only for files carrying the synthesis signature
    # (rank-one in the plane, periodic with the reflected-half period
    # 2(a+b)); admissible samples without it get the window checks alone
    claims_extremal = (isinstance(sig, signals.RankOneSignal) and sig.dim == 2
                       and sig.period is not None
                       and math.isclose(sig.period, 2.0 * (cfg.a + cfg.b),
                                        rel_tol=1e-9))
    if claims_extremal:
        params, traj = extremal2d.solve_extremal(cfg.a, cfg.b)
        report = extremal2d.verify_extremal(traj, params, tol=tol)
        ts = np.linspace(sig.t_start, sig.t_start + min(params.T, span), 257)
        dots = np.sum(sig.c_many(ts) * traj.c(ts - sig.t_start), axis=1)
        align = float(np.max(np.abs(np.abs(dots) - 1.0)))
        checks["verify_extremal"] = {"residuals": report.residuals, "mu": report.mu,
                                     "passed": report.passed,
                                     "control_alignment_gap": align}
        passed = passed and report.passed and align <= max(tol, 1e-6)

    _emit_json({"checks": checks, "passed": passed}, cfg)
    return 0 if passed else 1


_COMMANDS = {
    "mu": _cmd_mu,
    "extremal": _cmd_extremal,
    "oracle": _cmd_oracle,
    "decay": _cmd_decay,
    "gain": _cmd_gain,
    "gpe": _cmd_gpe,
    "verify": _cmd_verify,
}


@functools.cache  # one argparse tree per process; parse_args keeps no state
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peflow",
        description="Worst-case persistently excited signals for xdot = -S(t)x.")
    parser.add_argument("--version", action="version", version=f"peflow {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    specs = {
        "mu": "optimal cost mu(a, b, n) with the mu <= a bound check",
        "extremal": "extremal parameters, residual certificate, trajectory CSV",
        "oracle": "brute-force mu estimate vs the synthesized extremal",
        "decay": "decay rate of a supplied or synthesized periodic control",
        "gain": "two-sided L2-gain estimate with worst-input simulation",
        "gpe": "generalized PE schedule run: norms vs mu-sum prediction",
        "verify": "PE-window and extremal checks on a signal file",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--a", type=float, default=None, help="lower window bound a")
        p.add_argument("--b", type=float, default=None, help="upper window bound b")
        p.add_argument("--T", type=float, default=None, help="window length")
        p.add_argument("--n", type=int, default=2, help="state dimension (default 2)")
        p.add_argument("--tol", type=float, default=None,
                       help="tolerance (integration or residual, per subcommand)")
        p.add_argument("--seeds", type=int, default=20, help="oracle multistart count")
        p.add_argument("--segments", type=int, default=40,
                       help="oracle control segments")
        p.add_argument("--periods", type=int, default=None,
                       help="horizon periods / schedule windows")
        p.add_argument("--signal", type=str, default=None,
                       help="input signal or schedule JSON path")
        p.add_argument("--out", type=str, default=None, help="output path")
        p.add_argument("--format", type=str, default="json", choices=("json", "csv"))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = RunConfig(**vars(args))
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    try:
        try:
            return _COMMANDS[cfg.subcommand](cfg)
        except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
            _emit_json({"error": {"type": type(exc).__name__, "message": str(exc)},
                        "passed": False}, cfg)
            return 1
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
