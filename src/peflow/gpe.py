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
theta.  _chain walks the schedule once: it solves each distinct
(a_ell, b_ell) once, into a natural-clock template segment, and gives each
window its turn.  The log-contraction over window ell is then exactly
mu(a_ell, b_ell, 2), so the norm at tau_L is exp(-sum of mu) by construction.

build_gpe_signal builds the witness from that chain, each window its
pair's template samples plus the window's turn.  asymptotic_norm measures
the norm from the same chain, without building the witness or integrating
every window: each window's map is its template's window map conjugated by
the rotation by half the turn, and a pair's map is integrated once, as one
template flow of one column, or of two for a repeated pair, into a 2x2 matrix.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Literal

import numpy as np
from numpy.typing import NDArray

from .extremal2d import solve_extremal
from .flow import integrate_flow
from .signals import RankOneSignal, Segment, _field, _numbers

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
                values = tuple(float(x) for x in _numbers(getattr(self, name)))
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


def _synthesize_window(a: float, b: float):
    """Natural-clock window minimizer: (mu, template, theta(0), theta(a+b)),
    where template is the segment of its trajectory's phi samples on [0, a+b]."""
    params, traj = solve_extremal(a, b)
    theta, phis = traj.samples
    return params.mu, Segment(0.0, a + b, phis), float(theta[0]), float(theta[-1])


def _chain(schedule: GPESchedule) -> tuple[float, list[tuple[float, Segment, float]]]:
    """The chain's initial state angle theta0 and, per window, (mu, template, turn).

    Each distinct (a, b) is solved once.  The turn carries the pair's optimal
    initial angle onto the state angle theta reached so far; the window then
    ends at the pair's final angle plus the turn.
    """
    solved: dict = {}
    windows = []
    theta = None
    for ell, (a, b) in enumerate(zip(schedule.a_seq, schedule.b_seq)):
        if (a, b) not in solved:
            try:
                solved[a, b] = _synthesize_window(a, b)
            except Exception as exc:
                raise RuntimeError(f"window {ell} synthesis failed for "
                                   f"(a, b) = ({a}, {b})") from exc
        mu, template, theta_start, theta_end = solved[a, b]
        if theta is None:
            theta = theta0 = theta_start
        turn = theta - theta_start
        windows.append((mu, template, turn))
        theta = theta_end + turn
    return theta0, windows


def build_gpe_signal(schedule: GPESchedule) -> tuple[RankOneSignal, NDArray]:
    """Chain per-window worst-case controls into one signal on [0, tau_L].

    Window ell is one segment: its pair's template samples turned by the
    window's turn from _chain, with gain (a_ell + b_ell) / window length.
    Returns the signal and the worst initial direction omega0.
    """
    theta0, windows = _chain(schedule)
    taus = schedule.tau_seq
    segs = tuple(Segment(t0, t1, template.data + turn, (a + b) / (t1 - t0))
                 for a, b, t0, t1, (_, template, turn)
                 in zip(schedule.a_seq, schedule.b_seq, (0.0,) + taus, taus, windows))
    return RankOneSignal(segs), RankOneSignal._unit(theta0)


@dataclass(frozen=True)
class GPEAsymptotics:
    """Measured vs predicted decay along a GPE chain.

    norms[ell] is the state norm at tau_{ell+1}; predicted_norms is
    exp(-partial mu sums) with mu_seq[ell] = mu(a_ell, b_ell) from the
    schedule; limit_estimate is the last prediction, and max_rel_dev the
    largest |norms / predicted_norms - 1|.
    """

    taus: tuple[float, ...]
    norms: tuple[float, ...]
    predicted_norms: tuple[float, ...]
    mu_seq: tuple[float, ...]
    limit_estimate: float
    max_rel_dev: float


# A pair's map repeats its error, unchanged, in every window of the pair, so
# its flows run 10x tighter than integrate_flow's default 1e-9: at 1e-9 a
# constant (0.5, 0.5) chain of 50 windows came out 1.7e-7 off a tol-1e-12
# one-flow reference, at 1e-10 4.6e-9.
_MAP_TOL = 1e-10


def asymptotic_norm(schedule: GPESchedule) -> GPEAsymptotics:
    """State norms at the window ends against the exp(-sum mu) prediction.

    The state is chained from the witness's omega0 = unit(theta0) window by
    window, as a unit direction and the log of its norm, so a long chain
    cannot underflow.  Window ell of pair (a, b) is the pair's template turned
    by a shift of every angle (S -> R S R^T, R the rotation by half the turn)
    and time-rescaled with gain * span = a + b, which leaves the whole-window
    map unchanged; so from u = R^T omega it steps to x = R Phi u, Phi the
    template's map on [0, a + b], and adds log |x|.  A pair's Phi is integrated
    once, as one spherical template flow at _MAP_TOL, and kept as M = Phi V V^T:
    V is the first window's u for a pair used once, else [u, J u], J the
    rotation by 90 degrees.  x needs no rescaling: |Phi u| >= e^{-mu}, and the
    largest mu on the whole domain is 1.384, at a = b near 2.
    max_rel_dev is the largest relative gap between measured and predicted norms.
    """
    theta0, windows = _chain(schedule)
    uses = Counter(zip(schedule.a_seq, schedule.b_seq))
    omega = RankOneSignal._unit(theta0)
    maps: dict = {}  # (a, b) -> M
    log_norm, log_norms = 0.0, []
    for a, b, (_, template, turn) in zip(schedule.a_seq, schedule.b_seq, windows):
        c, s = math.cos(0.5 * turn), math.sin(0.5 * turn)
        R = np.array([[c, -s], [s, c]])
        u = R.T @ omega
        if (a, b) not in maps:
            start = u[:, None] if uses[a, b] == 1 else np.column_stack([u, (-u[1], u[0])])
            traj = integrate_flow(RankOneSignal((template,)), start, 0.0, a + b, tol=_MAP_TOL)
            maps[a, b] = (traj.omegas[-1] * np.exp(traj.log_r[-1])) @ start.T
        x = R @ (maps[a, b] @ u)
        r = math.hypot(x[0], x[1])
        omega, log_norm = x / r, log_norm + math.log(r)
        log_norms.append(log_norm)
    mus = [mu for mu, _, _ in windows]
    norms = np.exp(log_norms)
    predicted = np.exp(-np.cumsum(mus))
    return GPEAsymptotics(taus=schedule.tau_seq, norms=tuple(float(x) for x in norms),
                          predicted_norms=tuple(float(x) for x in predicted),
                          mu_seq=tuple(float(m) for m in mus),
                          limit_estimate=float(predicted[-1]),
                          max_rel_dev=float(np.max(np.abs(norms / predicted - 1.0))))


def schedule_from_dict(doc: dict) -> GPESchedule:
    """Schedule of a document {a_seq, b_seq, tau_seq, tag}; ValueError names
    the first malformed field."""
    seqs = [_field(doc, key, (list,)) for key in ("a_seq", "b_seq", "tau_seq")]
    return GPESchedule(*seqs, tag=doc.get("tag"))


def load_schedule(path: str) -> GPESchedule:
    with open(path) as fh:
        return schedule_from_dict(json.load(fh))
