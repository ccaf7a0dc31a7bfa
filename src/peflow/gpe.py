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

asymptotic_norm measures that norm without integrating every window:
each window is its pair's template turned and time-rescaled, so its map is
the template's window map conjugated by the rotation by half the turn, and
a pair's map is integrated once, as at most two template flows.
"""
from __future__ import annotations

import json
import math
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


# A pair's map repeats its error, unchanged, in every window of the pair, so
# its flows run 10x tighter than integrate_flow's default 1e-9: at 1e-9 a
# constant (0.5, 0.5) chain of 50 windows came out 1.7e-7 off a tol-1e-12
# one-flow reference, at 1e-10 4.6e-9.
_MAP_TOL = 1e-10


def _turn(schedule: GPESchedule, signal: RankOneSignal, template: Segment, ell: int) -> float:
    """The turn of window ell: every sample of its segment minus the template's.

    ValueError unless window ell is segment ell of the signal and that
    segment is the template turned and time-rescaled: gain * span = a + b
    to 1e-12 relative, and samples minus the turn equal the template's to
    rounding.
    """
    a, b, t0, t1 = schedule.window(ell)
    seg = signal.segments[ell] if ell < len(signal.segments) else None
    if seg is None or max(abs(seg.t0 - t0), abs(seg.t1 - t1)) > 1e-12 * max(1.0, abs(t1)):
        raise ValueError(f"window {ell} is not segment {ell} of the signal")
    if abs(seg.gain * (seg.t1 - seg.t0) - (a + b)) > 1e-12 * (a + b):
        raise ValueError(f"window {ell}: gain * span is not a + b = {a + b}")
    turn = float(seg.data[0] - template.data[0])
    rounding = 4.0 * np.finfo(float).eps * np.max(np.abs(seg.data))
    if seg.data.shape != template.data.shape or \
            np.max(np.abs(seg.data - turn - template.data)) > rounding:
        raise ValueError(f"window {ell}: samples are not the ({a}, {b}) template turned")
    return turn


def asymptotic_norm(schedule: GPESchedule, signal: RankOneSignal,
                    omega0: NDArray) -> GPEAsymptotics:
    """State norms at the window ends against the exp(-sum mu) prediction.

    The state is chained from omega0 window by window, as a unit direction
    and the log of its norm, so a long chain cannot underflow.  Window ell
    of pair (a, b) is the pair's template turned by a shift of every angle
    (S -> R S R^T, R the rotation by half the turn) and time-rescaled with
    gain * span = a + b, which leaves the whole-window map unchanged; so it
    steps the state x to R Phi R^T x, with Phi the template's map on
    [0, a + b].  _turn raises ValueError for a window that is not such a
    copy.  Phi is integrated as the windows need it, as spherical template
    flows at _MAP_TOL from orthonormal inputs: the pair's first window
    starts one from its own state, its second one from the perpendicular
    direction, which completes Phi.  A pair used once thus costs one flow
    and a pair used many times two.  Measured and predicted norms must
    agree within 1% at every window.
    """
    omega = np.asarray(omega0, dtype=float)
    pairs = list(zip(schedule.a_seq, schedule.b_seq))
    mus = [_synthesize_window(schedule, a, b)[0] for a, b in pairs]
    columns: dict = {}  # (a, b) -> [(input u, log |Phi u|, Phi u / |Phi u|)]
    log_norm, log_norms = 0.0, []
    for ell, (a, b) in enumerate(pairs):
        template = _synthesize_window(schedule, a, b)[1]
        half = 0.5 * _turn(schedule, signal, template, ell)
        c, s = math.cos(half), math.sin(half)
        R = np.array([[c, -s], [s, c]])
        u = R.T @ omega
        known = columns.setdefault((a, b), [])
        if len(known) < 2:
            start = u if not known else np.array([-known[0][0][1], known[0][0][0]])
            traj = integrate_flow(RankOneSignal((template,)), start, 0.0, a + b, tol=_MAP_TOL)
            known.append((start, float(traj.log_r[-1]), traj.omegas[-1]))
        top = max(log_r for _, log_r, _ in known)
        x = R @ sum((v @ u) * math.exp(log_r - top) * w for v, log_r, w in known)
        r = math.hypot(x[0], x[1])
        omega, log_norm = x / r, log_norm + top + math.log(r)
        log_norms.append(log_norm)
    norms = np.exp(log_norms)
    predicted = np.exp(-np.cumsum(mus))
    rel_dev = float(np.max(np.abs(norms / predicted - 1.0)))
    if rel_dev > 0.01:
        raise ArithmeticError(f"measured norms deviate from the mu-sum prediction "
                              f"by {rel_dev:.2%} (limit 1%)")
    return GPEAsymptotics(taus=schedule.tau_seq, norms=tuple(float(x) for x in norms),
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
