"""Command-line front end for batch reproduction of the bounds.

Subcommands: mu, extremal, oracle, decay, gain, gpe, verify, each taking only
the flags it reads (_SUBCOMMANDS).  Output is JSON, or CSV via --format, written
atomically to --out or to stdout.  Exit status: 0 when every check passes, 1
when a check fails or a pipeline error is reported, 2 for bad usage.

JSON documents carry the value each flag used under "config"; floats use the
shortest round-trip decimal form, so identical configs give byte-identical outputs.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import __version__, extremal2d, flow, gain, gpe, oracle, signals

__all__ = ["main"]

_ORACLE_RNG_SEED = 0  # fixed for byte-for-byte reproducibility


class _UsageError(Exception):
    """Bad usage: an unknown flag, a bad value or combination, an unwritable --out."""


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


def _emit_json(doc: dict, cfg: argparse.Namespace) -> None:
    doc = {"config": vars(cfg), **doc}
    _emit(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False,
                     default=_jsonable), cfg.out)


def _emit_csv(header: list[str], rows, cfg: argparse.Namespace) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _emit(buf.getvalue(), cfg.out)


def _cmd_mu(cfg: argparse.Namespace) -> int:
    """Optimal cost mu(a, b) with the mu <= a bound check."""
    mu = extremal2d.mu(cfg.a, cfg.b)
    passed = mu <= cfg.a
    _emit_json({
        "mu": mu,
        "ratio": mu * (1.0 + cfg.b ** 2) / cfg.a,
        "upper_bound_a": cfg.a,
        "passed": passed,
    }, cfg)
    return 0 if passed else 1


def _cmd_extremal(cfg: argparse.Namespace) -> int:
    """Extremal parameters and residual certificate, or the trajectory as CSV."""
    params, traj = extremal2d.solve_extremal(cfg.a, cfg.b)
    report = extremal2d.verify_extremal(traj, params, tol=cfg.tol)
    if cfg.format == "csv":
        ts = np.linspace(0.0, params.T, 2001)
        rows = np.column_stack([ts, traj.columns(ts), traj.cost(ts)])
        _emit_csv(["t", "theta", "eta", "phi", "cost"],
                  [[repr(float(v)) for v in row] for row in rows], cfg)
    else:
        shape = {**asdict(params), "phi0": params.phi0}  # reported as phi0, not k = cos(phi0/2)
        del shape["k"]
        _emit_json({
            "params": shape,
            "mu": report.mu,
            "residuals": report.residuals,
            "passed": report.passed,
        }, cfg)
    return 0 if report.passed else 1


def _cmd_oracle(cfg: argparse.Namespace) -> int:
    """Brute-force mu estimate against the synthesized extremal."""
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


def _cmd_decay(cfg: argparse.Namespace) -> int:
    """Decay rate of a --signal file, or of the control synthesized from --a --b."""
    if cfg.signal is not None:
        sig = signals.load_signal(cfg.signal)
        mu = None
    else:
        sig, _, mu = extremal2d.build_optimal_control(cfg.a, cfg.b)
    report = flow.decay_rate(sig, n_periods=cfg.periods, tol=cfg.tol)
    passed = report.rate >= -1e-12
    doc = {"decay": asdict(report)}
    if mu is not None:  # a synthesized control must decay at its own rate 2 mu per period
        doc["mu"], doc["expected_rate"] = mu, 2.0 * mu / sig.period
        passed = passed and abs(report.rate / doc["expected_rate"] - 1.0) <= 1e-6
    _emit_json({**doc, "passed": passed}, cfg)
    return 0 if passed else 1


def _cmd_gain(cfg: argparse.Namespace) -> int:
    """Two-sided L2-gain estimate, or as CSV the worst-input RK45 trace at --tol."""
    if cfg.format == "csv":
        u = gain.worst_input(*extremal2d.solve_extremal(cfg.a / 2, cfg.b / 2))
        _, trace = gain.simulate_gain(u, cfg.periods, tol=cfg.tol)
        _emit_csv(["t", "x_norm", "u_norm"],
                  [[repr(float(v)) for v in row] for row in trace], cfg)
        return 0
    report = gain.gain_estimate(cfg.a, cfg.b, cfg.T, k_periods=cfg.periods)
    # the worst-input ratio approaches its limit, the lower bound, from below
    passed = (report.lower <= report.simulated * (1.0 + gain.CONVERGENCE_TOL)
              and report.simulated <= report.upper * (1.0 + 1e-3)
              and report.lower <= report.upper)
    _emit_json({"gain": asdict(report), "passed": passed}, cfg)
    return 0 if passed else 1


def _cmd_gpe(cfg: argparse.Namespace) -> int:
    """GPE norms vs mu-sum prediction, for a --signal schedule or a constant one."""
    if cfg.signal is not None:
        schedule = gpe.load_schedule(cfg.signal)
    else:
        schedule = gpe.GPESchedule.constant(cfg.a, cfg.b, cfg.T, cfg.periods)
    L = schedule.length
    sums, verdict = gpe.series_criterion(schedule)
    asym = gpe.asymptotic_norm(schedule)
    passed = asym.max_rel_dev <= 0.01
    if cfg.format == "csv":
        rows = [[str(ell), repr(asym.taus[ell]), repr(asym.norms[ell]),
                 repr(asym.predicted_norms[ell]), repr(sums[ell])]
                for ell in range(L)]
        _emit_csv(["ell", "tau", "norm", "predicted_norm", "partial_sum"], rows, cfg)
    else:
        _emit_json({**asdict(asym), "verdict": verdict, "partial_sums": sums,
                    "passed": passed}, cfg)
    return 0 if passed else 1


def _cmd_verify(cfg: argparse.Namespace) -> int:
    """PE-window and extremal checks on a signal file; --T defaults to a + b."""
    sig = signals.load_signal(cfg.signal)

    # windows on the T-lattice: the synthesized worst cases meet the bounds
    # exactly there, while intermediate shifts are only PE at window 2T;
    # the first one, at t_start, is also reported as verify_int
    span = sig.horizon - sig.t_start
    if sig.period is not None:
        n_win = max(1, int(round(sig.period / cfg.T)))
    else:
        n_win = max(1, int(span // cfg.T))
    starts = [sig.t_start + j * cfg.T for j in range(n_win)]
    pe_reports = signals.verify_pe(sig, cfg.a, cfg.b, cfg.T, starts, tol=cfg.tol)
    checks = {"verify_int": asdict(pe_reports[0]), "verify_pe": [asdict(r) for r in pe_reports]}
    passed = all(r.satisfies for r in pe_reports)

    # extremal certificate only for files carrying the synthesis signature
    # (rank-one in the plane, periodic with the reflected-half period
    # 2(a+b)); admissible samples without it get the window checks alone
    claims_extremal = (isinstance(sig, signals.RankOneSignal) and sig.dim == 2
                       and sig.period is not None
                       and math.isclose(sig.period, 2.0 * (cfg.a + cfg.b),
                                        rel_tol=1e-9))
    if claims_extremal:
        params, traj = extremal2d.solve_extremal(cfg.a, cfg.b)
        report = extremal2d.verify_extremal(traj, params, tol=cfg.tol)
        ts = np.linspace(sig.t_start, sig.t_start + min(params.T, span), 257)
        dots = np.sum(np.array([sig.c(t) for t in ts]) * traj.c(ts - sig.t_start), axis=1)
        align = float(np.max(np.abs(np.abs(dots) - 1.0)))
        checks["verify_extremal"] = {"residuals": report.residuals, "mu": report.mu,
                                     "passed": report.passed,
                                     "control_alignment_gap": align}
        passed = passed and report.passed and align <= max(cfg.tol, 1e-6)

    _emit_json({"checks": checks, "passed": passed}, cfg)
    return 0 if passed else 1


def _checked(convert, ok, what: str):
    """An argparse type: the flag's text converted, then checked by ok."""
    def number(text: str):  # argparse reports a ValueError as "invalid number value"
        if not ok(value := convert(text)):
            raise argparse.ArgumentTypeError(f"need {what}, got {text!r}")
        return value
    return number


_POSITIVE = _checked(float, lambda x: 0.0 < x < math.inf, "a finite positive number")
_COUNT = _checked(int, lambda n: n >= 1, "an integer >= 1")

# The value check and help of every flag; each subcommand declares which it takes.
_FLAGS = {
    "signal": dict(help="input JSON: a signal file, or for gpe a schedule file"),
    "a": dict(type=_POSITIVE, help="lower window bound a"),
    "b": dict(type=_POSITIVE, help="upper window bound b >= a"),
    "T": dict(type=_POSITIVE, help="window length"),
    "tol": dict(type=_POSITIVE, help="integration or residual tolerance"),
    "seeds": dict(type=_COUNT, help="oracle multistart count"),
    "segments": dict(type=_checked(int, lambda n: n >= 4, "an integer >= 4"),
                     help="oracle control segments"),
    "periods": dict(type=_COUNT, help="horizon periods, or schedule windows"),
    "format": dict(choices=("json", "csv"), help="output format"),
    "out": dict(help="output path, written atomically (stdout otherwise)"),
}

# name: (handler, {flag: default}, {synthesis flag: default}); ... marks a
# required flag.  The synthesis flags build the input in place of --signal, so
# the two exclude each other; their defaults apply once --signal is absent.
_SUBCOMMANDS = {
    "mu": (_cmd_mu, dict(a=..., b=..., out=None), {}),
    "extremal": (_cmd_extremal, dict(a=..., b=..., tol=1e-6, format="json", out=None), {}),
    "oracle": (_cmd_oracle, dict(a=..., b=..., seeds=20, segments=40, out=None), {}),
    "decay": (_cmd_decay, dict(signal=None, periods=10, tol=1e-9, out=None),
              dict(a=..., b=...)),
    "gain": (_cmd_gain, dict(a=..., b=..., T=1.0, periods=50, tol=1e-9, format="json",
                             out=None), {}),
    "gpe": (_cmd_gpe, dict(signal=None, format="json", out=None),
            dict(a=..., b=..., T=1.0, periods=50)),
    "verify": (_cmd_verify, dict(signal=..., a=..., b=..., T=None, tol=1e-6, out=None), {}),
}


class _Parser(argparse.ArgumentParser):
    """Raises bad usage as _UsageError, which main maps to exit 2."""

    def error(self, message: str):
        raise _UsageError(f"{self.prog}: {message}")


@functools.cache  # one argparse tree per process; parse_args keeps no state
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="peflow",
        description="Worst-case persistently excited signals for xdot = -S(t)x.")
    parser.add_argument("--version", action="version", version=f"peflow {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (run, flags, synthesis) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=run.__doc__, description=run.__doc__)
        for flag, default in {**flags, **synthesis}.items():
            spec = dict(_FLAGS[flag])
            if default not in (None, ...):
                spec["help"] += f" (default {default})"
            if flag not in synthesis:
                spec.update(default=None if default is ... else default,
                            required=default is ...)
            p.add_argument(f"--{flag}", **spec)
    return parser


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """The flags of one invocation, each set to the value the subcommand uses."""
    cfg = _build_parser().parse_args(argv)
    synthesis = _SUBCOMMANDS[cfg.subcommand][2]
    given = [f"--{flag}" for flag in synthesis if getattr(cfg, flag) is not None]
    if given and cfg.signal is not None:
        raise _UsageError(f"--signal excludes {' '.join(given)}")
    for flag, default in synthesis.items():
        if cfg.signal is None and getattr(cfg, flag) is None:
            if default is ...:
                raise _UsageError(f"{cfg.subcommand} needs --signal, or --a and --b")
            setattr(cfg, flag, default)
    if cfg.subcommand == "verify" and cfg.T is None:
        cfg.T = cfg.a + cfg.b  # the window of the synthesized extremal
    if cfg.a is not None and cfg.a > cfg.b:  # a and b are given together
        raise _UsageError(f"need a <= b, got ({cfg.a}, {cfg.b})")
    return cfg


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = _parse(argv)
        try:
            return _SUBCOMMANDS[cfg.subcommand][0](cfg)
        except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
            _emit_json({"error": {"type": type(exc).__name__, "message": str(exc)},
                        "passed": False}, cfg)
            return 1
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
