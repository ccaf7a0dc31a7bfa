"""Generalized persistent excitation over non-uniform window schedules.

A GPE schedule prescribes per-window energy bounds a_ell, b_ell on
consecutive windows [tau_ell, tau_ell+1].  Decay of the excited flow is
governed by the series sum a_ell / (1 + b_ell^2): when it diverges every
trajectory converges to the origin; when it converges the construction
below exhibits "freezing" — the state norm stalls at a positive plateau.

The witness signal chains per-window worst-case controls into one
rank-one signal: each window is one segment carrying the angles of the
planar pendulum minimizer for its own (a_ell, b_ell), a_ell = b_ell
included, time-rescaled to the window length by the segment's gain
lam = (a_ell + b_ell) / window length (Gram and cost are invariant under
S -> lam * S(lam t)), and rotated so its optimal initial direction
continues the state direction reached so far.  A rotation of the plane
is a shift of every angle, so the chain is tracked as the state angle
theta.  Each distinct (a_ell, b_ell) is solved once, into a natural-clock
template segment whose cubic every window of that pair derives (one banded
solve per pair, not per window).  The log-contraction over window ell is
then exactly mu(a_ell, b_ell, 2), so the norm at tau_L is exp(-sum of mu)
by construction.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Literal

import numpy as np
from numpy.typing import NDArray

from .extremal2d import extremal_angles
from .flow import integrate_flow
from .signals import RankOneSignal, Segment, _field

__all__ = [
    "GPESchedule",
    "GPEAsymptotics",
    "series_criterion",
    "build_gpe_signal",
    "asymptotic_norm",
    "schedule_from_dict",
    "load_schedule",
]

@dataclass(frozen=True)
class GPESchedule:
    """Windowed excitation bounds: window ell is [tau_{ell-1}, tau_ell].

    tau_seq lists the right endpoints (tau_0 = 0 is implicit), strictly
    increasing and positive; a_seq/b_seq give the per-window Gram bounds.
    tag optionally records the analytic convergence verdict of the series
    sum a_ell/(1+b_ell^2), which numerics alone cannot decide.
    """

    a_seq: tuple[float, ...]
    b_seq: tuple[float, ...]
    tau_seq: tuple[float, ...]
    tag: Literal["converges", "diverges"] | None = None

    def __post_init__(self) -> None:
        for name in ("a_seq", "b_seq", "tau_seq"):
            try:
                values = tuple(float(x) for x in getattr(self, name))
            except (TypeError, ValueError):
                raise ValueError(f"{name} must hold numbers") from None
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} must be finite, got {values}")
            object.__setattr__(self, name, values)
        if not len(self.a_seq) == len(self.b_seq) == len(self.tau_seq):
            raise ValueError("a_seq, b_seq, tau_seq must have equal length")
        if len(self.a_seq) == 0:
            raise ValueError("schedule must have at least one window")
        for a, b in zip(self.a_seq, self.b_seq):
            if not 0.0 < a <= b:
                raise ValueError(f"need 0 < a <= b per window, got ({a}, {b})")
        prev = 0.0
        for tau in self.tau_seq:
            if tau <= prev:
                raise ValueError("tau_seq must be strictly increasing and positive")
            prev = tau
        if self.tag not in (None, "converges", "diverges"):
            raise ValueError(f"unknown tag {self.tag!r}")

    @property
    def length(self) -> int:
        return len(self.a_seq)

    @cached_property
    def _extremals(self) -> dict:
        """(a, b) -> window minimizer, filled on first use: one solve per distinct pair."""
        return {}

    def window(self, ell: int) -> tuple[float, float, float, float]:
        """(a, b, t_start, t_end) of window ell (0-based)."""
        t0 = 0.0 if ell == 0 else self.tau_seq[ell - 1]
        return self.a_seq[ell], self.b_seq[ell], t0, self.tau_seq[ell]

    @classmethod
    def constant(cls, a: float, b: float, T: float, L: int,
                 tag: Literal["converges", "diverges"] | None = None) -> GPESchedule:
        """L identical windows of length T with bounds (a, b)."""
        taus = tuple((ell + 1) * T for ell in range(L))
        return cls((a,) * L, (b,) * L, taus, tag=tag)


def series_criterion(schedule: GPESchedule) -> tuple[list[float], str]:
    """Partial sums of a_ell/(1+b_ell^2) with the schedule's analytic verdict.

    The verdict is the schedule's tag when present, else "undetermined":
    a finite prefix cannot decide convergence.
    """
    sums = []
    acc = 0.0
    for a, b in zip(schedule.a_seq, schedule.b_seq):
        acc += a / (1.0 + b * b)
        sums.append(acc)
    return sums, schedule.tag if schedule.tag is not None else "undetermined"


def _synthesize_window(schedule: GPESchedule, a: float, b: float):
    """Natural-clock window minimizer: (mu, template, theta(0), theta(a+b)),
    where template is the segment of its phi samples on [0, a+b].

    Solved once per distinct (a, b) of the schedule and kept on it, so
    build_gpe_signal and asymptotic_norm share the solves, and every window
    of the pair derives its segment from the one template cubic.
    """
    cache = schedule._extremals
    if (a, b) not in cache:
        mu, theta, phis = extremal_angles(a, b)
        cache[a, b] = (mu, Segment(0.0, a + b, phis), float(theta[0]), float(theta[-1]))
    return cache[a, b]


def build_gpe_signal(schedule: GPESchedule) -> tuple[RankOneSignal, NDArray]:
    """Chain per-window worst-case controls into one signal on [0, tau_L].

    Window ell is one segment: the (a_ell, b_ell) minimizer's angles
    shifted by the turn that carries its optimal initial angle onto the
    state angle theta reached so far, with gain (a_ell + b_ell) / window
    length, derived from the pair's template so that its cubic is the
    template's plus the turn.  Returns the signal and the worst initial
    direction omega0.
    """
    segs: list[Segment] = []
    theta = None
    for ell in range(schedule.length):
        a, b, t0, t1 = schedule.window(ell)
        try:
            _, template, theta_start, theta_end = _synthesize_window(schedule, a, b)
        except Exception as exc:
            raise RuntimeError(f"window {ell} synthesis failed for "
                               f"(a, b) = ({a}, {b})") from exc
        if theta is None:
            theta = theta0 = theta_start
        turn = theta - theta_start
        segs.append(template.derive(t0, t1, (a + b) / (t1 - t0), offset=turn))
        theta = theta_end + turn
    return RankOneSignal(tuple(segs)), RankOneSignal._unit(theta0)


@dataclass(frozen=True)
class GPEAsymptotics:
    """Measured vs predicted decay along a GPE chain.

    norms[ell] is the state norm at tau_{ell+1}; predicted_norms is
    exp(-partial mu sums) with mu_seq[ell] = mu(a_ell, b_ell) from the
    schedule; limit_estimate is the last prediction.
    """

    taus: tuple[float, ...]
    norms: tuple[float, ...]
    predicted_norms: tuple[float, ...]
    mu_seq: tuple[float, ...]
    limit_estimate: float
    max_rel_dev: float


def asymptotic_norm(schedule: GPESchedule, signal: RankOneSignal,
                    omega0: NDArray) -> GPEAsymptotics:
    """State norms at the window ends against the exp(-sum mu) prediction.

    One flow from omega0 over [0, tau_L]; the window ends are segment ends
    of the chained signal, so the flow has a sample at each.  Measured and
    predicted norms must agree within 1% at every window.
    """
    mus = [_synthesize_window(schedule, a, b)[0]
           for a, b in zip(schedule.a_seq, schedule.b_seq)]
    taus = schedule.tau_seq
    traj = integrate_flow(signal, omega0, 0.0, taus[-1])
    norms = np.exp(traj.log_r[np.searchsorted(traj.ts, taus)])
    predicted = np.exp(-np.cumsum(mus))
    rel_dev = float(np.max(np.abs(norms / predicted - 1.0)))
    if rel_dev > 0.01:
        raise ArithmeticError(f"measured norms deviate from the mu-sum prediction "
                              f"by {rel_dev:.2%} (limit 1%)")
    return GPEAsymptotics(taus=taus, norms=tuple(float(x) for x in norms),
                          predicted_norms=tuple(float(x) for x in predicted),
                          mu_seq=tuple(float(m) for m in mus),
                          limit_estimate=float(predicted[-1]), max_rel_dev=rel_dev)


def schedule_from_dict(doc: dict) -> GPESchedule:
    """Schedule of a document {a_seq, b_seq, tau_seq, tag}; ValueError names
    the first malformed field."""
    seqs = [_field(doc, key, (list,)) for key in ("a_seq", "b_seq", "tau_seq")]
    return GPESchedule(*seqs, tag=doc.get("tag"))


def load_schedule(path: str) -> GPESchedule:
    with open(path) as fh:
        return schedule_from_dict(json.load(fh))
