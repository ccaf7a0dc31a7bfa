"""Signal models for rank-one and matrix-valued excitation controls.

A control signal is a piecewise-smooth map t -> S(t) into positive
semi-definite symmetric matrices.  Two concrete representations are used
throughout:

* :class:`RankOneSignal` represents the planar rank-one control S = g c c^T
  by a single angle phi(t), through c = (cos(phi/2), sin(phi/2)).
* :class:`MatrixSignal` stores sampled symmetric matrices directly; it
  serves matrix files.

Both types are segmented: each segment carries samples on the uniform
grid linspace(t0, t1, m), except single-sample segments which are exact
constants (used for piecewise-constant controls), and a gain g > 0 that
scales its matrix, so time_rescale only relabels times and gains and a
rank-one control stays rank-one.  A segment interpolates its samples by
the not-a-knot cubic in the sample index u = (t - t0)(m-1)/(t1 - t0),
scipy's CubicSpline on that grid, built by one tridiagonal solve; a read
at one time is int(u) and Horner on four stored coefficients, so a
rank-one control hands the flow one angle per evaluation.  A periodic
signal's period equals the span of its segments.  Instances are immutable.

A span [t0, t1] is walked one piece at a time: pieces() cuts it at the
segment boundaries, and a piece's values are read from its own segment
alone, so the value at a piece's right end is the left limit there.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
from array import array
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Literal

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import solve_banded

__all__ = [
    "Segment",
    "RankOneSignal",
    "MatrixSignal",
    "PEWindowReport",
    "gram",
    "verify_pe",
    "time_rescale",
    "signal_to_dict",
    "signal_from_dict",
    "write_atomic",
    "load_signal",
]

PSD_TOL = 1e-10

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(5)
_GRAM_SUBINTERVALS = 256  # quadrature cells per signal segment


@dataclass(frozen=True)
class Segment:
    """One sampled piece of a signal on [t0, t1].

    data holds samples on the uniform grid linspace(t0, t1, m): shape
    (m,) for the angles of a rank-one signal, (m, n, n) for matrices.
    m == 1 means the segment is constant.  The segment's control is
    S = gain * (the matrix its samples give).
    """

    t0: float
    t1: float
    data: NDArray[np.float64]
    gain: float = 1.0

    def __post_init__(self) -> None:
        for name in ("t0", "t1", "gain", "data"):
            try:  # a JSON integer too large for a float overflows here
                value = np.asarray(_numbers(getattr(self, name)), dtype=float)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"field {name!r} is not a float: {exc}") from None
            if not np.all(np.abs(value) < math.inf):
                raise ValueError(f"field {name!r} must be finite")
            object.__setattr__(self, name, value if name == "data" else float(value))
        if self.data.shape[:1] == (0,):
            raise ValueError("field 'data' needs at least one sample")
        if not self.gain > 0.0:
            raise ValueError(f"field 'gain' must be positive, got {self.gain}")
        if not self.t1 > self.t0:
            raise ValueError(f"field 't1' must exceed t0, got [{self.t0}, {self.t1}]")

    @cached_property
    def _coef(self) -> array:
        """The not-a-knot cubic in the sample index u = (t - t0)(m-1)/(t1 - t0),
        flat: per interval i and per sample component, the coefficients of
        s^0..s^3, s = u - i.

        On the unit grid the slopes solve one constant-coefficient tridiagonal
        system; m = 2 is a line and m = 3 one parabola, as in scipy.
        """
        m = len(self.data)
        y = self.data.reshape(m, -1)
        dy = np.diff(y, axis=0)
        if m == 2:
            slopes = np.concatenate([dy, dy])
        elif m == 3:
            slopes = np.concatenate([1.5 * dy[:1] - 0.5 * dy[1:], 0.5 * (dy[:1] + dy[1:]),
                                     1.5 * dy[1:] - 0.5 * dy[:1]])
        else:  # rows [1, 4, 1], and [1, 2] / [2, 1] where the first / last cubic spans two cells
            band = np.ones((3, m))
            band[1, 1:-1] = 4.0
            band[0, 1] = band[2, -2] = 2.0
            rhs = np.concatenate([0.5 * (5.0 * dy[:1] + dy[1:2]), 3.0 * (dy[:-1] + dy[1:]),
                                  0.5 * (dy[-2:-1] + 5.0 * dy[-1:])])
            slopes = solve_banded((1, 1), band, rhs, check_finite=False)
        s0, s1 = slopes[:-1], slopes[1:]
        coef = np.stack([y[:-1], s0, 3.0 * dy - 2.0 * s0 - s1, s0 + s1 - 2.0 * dy], axis=-1)
        return array("d", coef.tobytes())

    def values(self, ts: NDArray) -> NDArray[np.float64]:
        """Interpolated raw samples at an array of times, clamped to [t0, t1]."""
        m, shape = len(self.data), np.shape(ts) + self.data.shape[1:]
        if m == 1:
            return np.broadcast_to(self.data[0], shape).copy()
        u = np.clip((np.asarray(ts) - self.t0) * ((m - 1) / (self.t1 - self.t0)), 0.0, m - 1)
        i = np.minimum(u.astype(int), m - 2)
        s = (u - i)[..., None]
        c = np.frombuffer(self._coef).reshape(m - 1, -1, 4)[i]
        return (((c[..., 3] * s + c[..., 2]) * s + c[..., 1]) * s + c[..., 0]).reshape(shape)

    def reader(self, shift: float = 0.0) -> Callable[[float], float | list[float]]:
        """t -> the interpolated raw sample at local time t - shift, clamped to
        [t0, t1]: a float for angles, the flattened matrix as floats otherwise.

        A read takes int(u) for the interval and runs Horner on four array
        entries per component: no search and no numpy call.
        """
        data = self.data
        m = len(data)
        if m == 1:
            value = float(data[0]) if data.ndim == 1 else data[0].ravel().tolist()
            return lambda t: value
        C, top, last, k4 = self._coef, float(m - 1), m - 2, 4 * data[0].size
        start, scale, angles = self.t0 + shift, (m - 1) / (self.t1 - self.t0), data.ndim == 1

        def at(t: float) -> float | list[float]:
            u = (t - start) * scale
            u = 0.0 if u < 0.0 else top if u > top else u
            i = int(u) if u < top else last
            s = u - i
            j = k4 * i
            if angles:
                return ((C[j + 3] * s + C[j + 2]) * s + C[j + 1]) * s + C[j]
            return [((C[q + 3] * s + C[q + 2]) * s + C[q + 1]) * s + C[q]
                    for q in range(j, j + k4, 4)]
        return at


@dataclass(frozen=True)
class _SegmentedSignal:
    """Ordered segments that tile to 1e-12, the dimension n of S(t) and an optional
    period equal to their span: the fields and checks of both signal classes, which
    declare no fields and check only their own samples.  Horizon, wrapping, pieces."""

    segments: tuple[Segment, ...]
    dim: int = 2
    period: float | None = None

    def __post_init__(self) -> None:
        segs = tuple(self.segments)
        if not segs:
            raise ValueError("signal needs at least one segment")
        for prev, nxt in zip(segs, segs[1:]):
            if abs(nxt.t0 - prev.t1) > 1e-12 * max(1.0, abs(prev.t1)):
                raise ValueError(f"segments do not tile: gap between {prev.t1} and {nxt.t0}")
        span = segs[-1].t1 - segs[0].t0
        if self.period is not None and not abs(self.period - span) <= 1e-12 * span:
            raise ValueError(f"period {self.period} differs from the segments' span {span}")
        object.__setattr__(self, "segments", segs)

    @property
    def t_start(self) -> float:
        return self.segments[0].t0

    @property
    def horizon(self) -> float:
        return self.segments[-1].t1

    @cached_property
    def _starts(self) -> list[float]:
        return [s.t0 for s in self.segments]

    def pieces(self, t0: float, t1: float) -> list[tuple[float, float, Segment, float]]:
        """Cut [t0, t1] at the segment boundaries into pieces (u0, u1, segment, shift).

        On [u0, u1] the signal is that one segment read at local time
        t - shift, where shift = k * period for a periodic signal (0 for an
        aperiodic one).  The walk starts at the segment holding t0 and steps
        through the segment list, one pass per period; a boundary within
        1e-12 of t0 or t1 makes no cut.  This is the one place that cuts a
        span; a point read at t takes the first piece of pieces(t, t), so at
        a boundary it reads the segment on the right.
        """
        segs = self.segments
        if self.period is None:
            if t0 < self.t_start - 1e-9 or t1 > self.horizon + 1e-9:
                raise ValueError(f"[{t0}, {t1}] outside signal horizon "
                                 f"[{self.t_start}, {self.horizon}]")
            P, k = 0.0, 0
        else:
            P = self.period
            k = math.floor((t0 - self.t_start) / P)
        i = min(max(bisect_right(self._starts, t0 - k * P) - 1, 0), len(segs) - 1)
        out = []
        u0, t1 = float(t0), float(t1)
        while True:
            shift = k * P
            if i + 1 < len(segs):
                end = float(segs[i + 1].t0 + shift)
            elif self.period is None:
                end = math.inf
            else:  # the period wrap: horizon + kP and t_start + (k+1)P may differ by an ulp
                end = float(min(self.horizon + shift, self.t_start + (k + 1) * P))
            if end >= t1 - 1e-12:
                out.append((u0, t1, segs[i], shift))
                return out
            if end > u0 + 1e-12:
                out.append((u0, end, segs[i], shift))
                u0 = end
            i += 1
            if i == len(segs):
                i, k = 0, k + 1


class RankOneSignal(_SegmentedSignal):
    """Planar rank-one control S = g cc^T with c = (cos(phi/2), sin(phi/2)): each
    segment carries angle samples phi, shape (m,), and its gain g; dim is always 2."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.dim != 2:
            raise ValueError("rank-one signals are planar: dim must be 2")
        for i, seg in enumerate(self.segments):
            if seg.data.ndim != 1:
                raise ValueError(f"segment {i} field 'data': angles must have shape (m,)")

    @staticmethod
    def _unit(phi: float) -> NDArray[np.float64]:
        half = 0.5 * phi
        return np.array([math.cos(half), math.sin(half)])

    @staticmethod
    def _units(phis: NDArray) -> NDArray[np.float64]:
        """Unit vectors of an array of angles, shape (..., 2)."""
        half = 0.5 * phis
        return np.stack([np.cos(half), np.sin(half)], axis=-1)

    def c(self, t: float) -> NDArray[np.float64]:
        """Unit vector c(t)."""
        _, _, seg, shift = self.pieces(t, t)[0]
        return self._unit(seg.reader(shift)(t))


class MatrixSignal(_SegmentedSignal):
    """Sampled symmetric positive semi-definite matrix signal S(t): each segment
    carries samples of shape (m, n, n), symmetric to 1e-9, eigenvalues >= -1e-10."""

    def __post_init__(self) -> None:
        super().__post_init__()
        for i, seg in enumerate(self.segments):
            where = f"segment {i} field 'data':"
            if seg.data.ndim != 3 or seg.data.shape[1:] != (self.dim, self.dim):
                raise ValueError(f"{where} matrices must have shape (m, n, n)")
            sym_err = np.max(np.abs(seg.data - np.swapaxes(seg.data, 1, 2)))
            if sym_err > 1e-9:
                raise ValueError(f"{where} samples not symmetric (max asymmetry {sym_err:.2e})")
            lo = np.min(np.linalg.eigvalsh(seg.data))
            if lo < -PSD_TOL:
                raise ValueError(f"{where} samples not PSD (min eigenvalue {lo:.2e})")

    def matrix_on(self, seg: Segment, shift: float) -> Callable[[float], list[list[float]]]:
        """t -> S(t) as n rows of n floats on a piece of seg: local time t - shift,
        clamped to [seg.t0, seg.t1], the segment's gain times the symmetric
        part 0.5 (R + R^T) of the sample R."""
        n, at, g = self.dim, seg.reader(shift), seg.gain
        pairs = [[(i * n + j, j * n + i) for j in range(n)] for i in range(n)]

        def S_at(t: float) -> list[list[float]]:
            raw = at(t)
            return [[0.5 * g * (raw[p] + raw[q]) for p, q in row] for row in pairs]
        return S_at

    def matrix(self, t: float) -> NDArray[np.float64]:
        """S(t) as an (n, n) array."""
        _, _, seg, shift = self.pieces(t, t)[0]
        return np.array(self.matrix_on(seg, shift)(t))


@dataclass(frozen=True)
class PEWindowReport:
    """Windowed Gram eigenvalue check a*I <= int_t^{t+T} S <= b*I."""

    window_start: float
    gram_eigen_min: float
    gram_eigen_max: float
    satisfies: bool


def _gauss_legendre(edges: NDArray) -> tuple[NDArray, NDArray]:
    """Nodes and weights of composite 5-point Gauss-Legendre on the cells
    between consecutive edges."""
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, weights


def gram(signal: RankOneSignal | MatrixSignal, t0: float, t1: float) -> NDArray[np.float64]:
    """Windowed Gram matrix int_{t0}^{t1} S(tau) dtau.

    Composite Gauss-Legendre quadrature on each piece, so piecewise-constant
    signals integrate exactly and smooth segments get spectral accuracy.
    A piece's nodes are evaluated in one vectorized call on its segment.
    """
    if not t1 > t0:
        raise ValueError("need t0 < t1")
    total = np.zeros((signal.dim, signal.dim))
    for u0, u1, seg, shift in signal.pieces(t0, t1):
        # cells sized to the owning segment, so resolution matches the sample
        # density however the window cuts the segment
        cells = max(1, int(np.ceil((u1 - u0) / (seg.t1 - seg.t0) * _GRAM_SUBINTERVALS)))
        nodes, weights = _gauss_legendre(np.linspace(u0 - shift, u1 - shift, cells + 1))
        weights = seg.gain * weights
        vals = seg.values(nodes)
        if isinstance(signal, RankOneSignal):
            cs = signal._units(vals)
            total += np.einsum("k,ki,kj->ij", weights, cs, cs)
        else:
            total += np.einsum("k,kij->ij", weights, vals)
    return 0.5 * (total + total.T)


def verify_pe(signal, a: float, b: float, T: float, window_starts,
              tol: float = 1e-6) -> list[PEWindowReport]:
    """Windowed PE checks at the given start times; gram raises ValueError for a
    window past an aperiodic signal's horizon."""
    if not 0 < a <= b:
        raise ValueError("need 0 < a <= b")
    reports = []
    for t in window_starts:
        g = gram(signal, t, t + T)
        ev = np.linalg.eigvalsh(g)
        lo, hi = float(ev[0]), float(ev[-1])
        reports.append(PEWindowReport(float(t), lo, hi, bool(a - tol <= lo and hi <= b + tol)))
    return reports


def time_rescale(signal, lam: float):
    """Class-preserving time change S~(s) = lam * S(lam * s), exact.

    Each segment keeps its samples on [t0/lam, t1/lam] with its gain times
    lam; its cubic, indexed by the sample, is unchanged.  Maps a signal with
    window bounds (a, b, T) to one with bounds (a, b, T/lam): the windowed
    Gram integrals are unchanged.
    """
    if not 0.0 < lam < math.inf:
        raise ValueError(f"need a finite lam > 0, got {lam}")
    segs = tuple(Segment(seg.t0 / lam, seg.t1 / lam, seg.data, seg.gain * lam)
                 for seg in signal.segments)
    period = signal.period / lam if signal.period is not None else None
    return replace(signal, segments=segs, period=period)


def signal_to_dict(signal: RankOneSignal | MatrixSignal) -> dict:
    """Serializable document {dim, period, segments: [{t0, t1, kind, data, gain}]},
    where a segment's gain is written only when it is not 1."""
    segs = []
    kind: Literal["angles", "matrices"] = \
        "angles" if isinstance(signal, RankOneSignal) else "matrices"
    for seg in signal.segments:
        segs.append({"t0": seg.t0, "t1": seg.t1, "kind": kind, "data": seg.data.tolist()})
        if seg.gain != 1.0:
            segs[-1]["gain"] = seg.gain
    return {"dim": signal.dim, "period": signal.period, "segments": segs}


def _numbers(value):
    """value; TypeError if a string or a boolean is anywhere in it, as float() reads both."""
    if isinstance(value, (list, tuple)):
        return [_numbers(item) for item in value]
    if np.asarray(value).dtype.kind in "bSU":
        raise TypeError(f"{value!r} is not a number")
    return value


def _field(doc, key: str, types: tuple, where: str = "document"):
    """doc[key] of a JSON object; ValueError names the field if missing or mistyped."""
    if not (isinstance(doc, dict) and key in doc and isinstance(doc[key], types)
            and not isinstance(doc[key], bool)):
        names = " or ".join(t.__name__ for t in types)
        raise ValueError(f"{where} field {key!r} is missing or not {names}")
    return doc[key]


def signal_from_dict(doc: dict) -> RankOneSignal | MatrixSignal:
    """Inverse of signal_to_dict; ValueError names the first malformed field."""
    kinds, segs = set(), []
    for i, s in enumerate(_field(doc, "segments", (list,))):
        where = f"segment {i}"
        kinds.add(_field(s, "kind", (str,), where))
        data = _field(s, "data", (list,), where)
        t0, t1 = (_field(s, key, (int, float), where) for key in ("t0", "t1"))
        gain = _field(s, "gain", (int, float), where) if "gain" in s else 1.0
        try:
            segs.append(Segment(t0, t1, data, gain))
        except ValueError as exc:
            raise ValueError(f"{where} {exc}") from None
    if kinds not in ({"angles"}, {"matrices"}):
        raise ValueError(f"unsupported or mixed segment kinds: {sorted(kinds)}")
    cls = RankOneSignal if kinds == {"angles"} else MatrixSignal
    period = _field(doc, "period", (int, float, type(None)))
    try:  # a JSON integer too large for a float overflows here
        period = None if period is None else float(period)
    except OverflowError:
        raise ValueError("document field 'period' is not a finite float") from None
    return cls(tuple(segs), dim=_field(doc, "dim", (int,)), period=period)


def write_atomic(path: str, text: str) -> None:
    """Write text, newline-terminated, to path through a temp file and a rename.

    Readers never see a partial file, and a failed write leaves nothing
    behind.  Serialize before calling, so that encoding errors raise
    before any file is opened.
    """
    if not text.endswith("\n"):
        text += "\n"
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_signal(path: str) -> RankOneSignal | MatrixSignal:
    with open(path) as fh:
        return signal_from_dict(json.load(fh))
