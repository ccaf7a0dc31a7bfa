"""Signal containers, window Grams, and the constructions built on them.

Covers: segment validation, rank-one and matrix evaluation, periodic
wrapping, the segment walk of pieces(), Gram quadrature against a dense Riemann oracle, window checks,
axis hopping, reflection extension, time rescaling, and JSON round-trips.
"""
from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from peflow import extremal2d, signals

from controls import axis_hopping_control, matrix_at, write_signal


def const_angle_signal(phi: float, T: float, period: float | None = None):
    seg = signals.Segment(0.0, T, np.array([phi, phi]))
    return signals.RankOneSignal((seg,), period=period)


class TestSegments:
    def test_tiling_gap_rejected(self):
        segs = (signals.Segment(0.0, 1.0, np.zeros(2)),
                signals.Segment(1.5, 2.0, np.zeros(2)))
        with pytest.raises(ValueError):
            signals.RankOneSignal(segs)

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            signals.Segment(1.0, 0.0, np.zeros(2))

    @pytest.mark.parametrize("field, kwargs", [
        ("t0", dict(t0=-math.inf)), ("t1", dict(t1=math.nan)),
        ("data", dict(data=np.array([0.1, math.nan]))),
        ("gain", dict(gain=0.0)), ("gain", dict(gain=-2.0)), ("gain", dict(gain=math.inf)),
    ])
    def test_non_finite_fields_rejected(self, field, kwargs):
        with pytest.raises(ValueError, match=f"field '{field}'"):
            signals.Segment(**{"t0": 0.0, "t1": 1.0, "data": np.zeros(2), **kwargs})

    def test_single_sample_is_constant(self):
        seg = signals.Segment(0.0, 2.0, np.array([0.7]))
        sig = signals.RankOneSignal((seg,))
        for t in (0.0, 0.3, 1.9):
            assert sig.c(t) == pytest.approx([math.cos(0.35), math.sin(0.35)])


class TestUniformSpline:
    """A segment's cubic in the sample index is scipy's not-a-knot
    CubicSpline on linspace(t0, t1, m): a line at m = 2, one parabola at 3."""

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 2048])
    @pytest.mark.parametrize("kind", ["angles", "matrices"])
    def test_matches_scipy(self, m, kind):
        t0, t1, shift = 0.3, 2.9, 4.0
        grid = np.linspace(t0, t1, m)
        # smooth samples, as the synthesized controls are: the index u carries
        # a rounding of a few ulps of m, which only a steep sample-to-sample
        # slope would lift above 1e-13
        if kind == "angles":
            data = 3.0 * np.sin(2.1 * grid) + grid
        else:
            c, s = np.cos(grid), np.sin(grid)
            R = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
            data = np.einsum("kij,kj,klj->kil", R, np.stack([1.0 + grid, 0.3 + 0 * grid], -1), R)
        seg = signals.Segment(t0, t1, data)
        ts = np.concatenate([grid, 0.5 * (grid[1:] + grid[:-1]), [t0, t1, t0 - 0.4, t1 + 0.7]])
        want = CubicSpline(grid, data, axis=0)(np.clip(ts, t0, t1))
        bound = 1e-13 * np.max(np.abs(data))
        assert np.max(np.abs(seg.values(ts) - want)) <= bound
        at = seg.reader(shift)  # local time t - shift
        got = np.array([at(t + shift) for t in ts.tolist()]).reshape(want.shape)
        assert np.max(np.abs(got - want)) <= bound


class TestRankOne:
    def test_angle_evaluation(self):
        sig = const_angle_signal(math.pi / 2, 1.0)
        c = sig.c(0.5)
        assert c == pytest.approx([math.cos(math.pi / 4), math.sin(math.pi / 4)])
        S = matrix_at(sig, 0.5)
        assert S == pytest.approx(np.outer(c, c))
        assert np.trace(S) == pytest.approx(1.0)

    def test_vector_data_must_be_unit(self):
        bad = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            signals.RankOneSignal((signals.Segment(0.0, 1.0, bad),))

    def test_periodic_wrap(self):
        sig = const_angle_signal(0.3, 1.0, period=1.0)
        assert sig.c(7.25) == pytest.approx(sig.c(0.25))
        assert sig.c(-0.75) == pytest.approx(sig.c(0.25))
        # a smooth two-segment control with distinct gains and its matrix
        # twin; at the inner boundary 0.75 the right segment is read
        segs = [signals.Segment(t0, t1, 0.4 + 0.9 * np.sin(2.0 * np.pi * np.linspace(t0, t1, 9)),
                                gain)
                for t0, t1, gain in ((0.0, 0.75, 1.0), (0.75, 1.0, 2.5))]
        smooth = signals.RankOneSignal(tuple(segs), period=1.0)
        twin_segs = []
        for s in segs:
            cs = smooth._units(s.data)
            twin_segs.append(signals.Segment(s.t0, s.t1, np.einsum("ki,kj->kij", cs, cs), s.gain))
        twin = signals.MatrixSignal(tuple(twin_segs), period=1.0)
        for t in (0.1, 0.4, 0.75, 0.9):
            for k in (3, -2):
                assert smooth.c(t + k) == pytest.approx(smooth.c(t), rel=0, abs=1e-12)
                assert matrix_at(smooth, t + k) == pytest.approx(matrix_at(smooth, t),
                                                                 rel=0, abs=1e-12)
                assert twin.matrix(t + k) == pytest.approx(twin.matrix(t), rel=0, abs=1e-12)
        for s in (smooth, twin):
            assert np.trace(matrix_at(s, 0.75 + 3)) == pytest.approx(2.5, rel=1e-12)
            assert np.trace(matrix_at(s, 0.75 - 2)) == pytest.approx(2.5, rel=1e-12)

    def test_aperiodic_out_of_range(self):
        sig = const_angle_signal(0.3, 1.0)
        with pytest.raises(ValueError):
            sig.c(1.5)

    @given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_unit_direction_any_angles(self, p0, p1):
        seg = signals.Segment(0.0, 1.0, np.array([p0, p1]))
        sig = signals.RankOneSignal((seg,))
        for t in (0.0, 0.25, 0.75, 1.0):
            assert np.linalg.norm(sig.c(t)) == pytest.approx(1.0, abs=1e-9)


def check_pieces(sig, t0, t1):
    """The pieces tile [t0, t1], each inside its segment shifted by whole periods."""
    pieces = sig.pieces(t0, t1)
    assert pieces[0][0] == t0 and pieces[-1][1] == t1
    for (_, end, _, _), (start, _, _, _) in zip(pieces, pieces[1:]):
        assert end == start
    for u0, u1, seg, shift in pieces:
        assert u1 - u0 > 1e-12
        if sig.period is None:
            assert shift == 0.0
        else:
            assert shift == round(shift / sig.period) * sig.period
        slack = 1e-12 * max(1.0, abs(u0), abs(u1))
        assert seg.t0 + shift - slack <= u0 and u1 <= seg.t1 + shift + slack


class TestPieces:
    def test_wrap_cut_once(self):
        # horizon + kP and t_start + (k+1)P once gave both 7.8 and
        # 7.800000000000001, a piece of one ulp
        check_pieces(extremal2d.build_optimal_control(0.15, 0.5)[0], 0.0, 60.0)

    @given(st.lists(st.floats(0.05, 3.0), min_size=1, max_size=5),
           st.floats(-2.0, 2.0), st.booleans(), st.floats(0.0, 0.9), st.floats(0.01, 1.0),
           st.floats(-3.0, 3.0), st.floats(1e-6, 4.0))
    @settings(max_examples=200, deadline=None)
    def test_pieces_tile_the_span(self, lengths, start, periodic, f0, f1, p0, p1):
        edges = start + np.concatenate([[0.0], np.cumsum(lengths)])
        segs = tuple(signals.Segment(u, v, np.array([0.1 * j]))
                     for j, (u, v) in enumerate(zip(edges[:-1], edges[1:])))
        span = edges[-1] - edges[0]
        if periodic:
            sig = signals.RankOneSignal(segs, period=span)
            t0 = start + p0 * span  # mid-period starts, crossing several periods
            t1 = t0 + p1 * span
        else:
            sig = signals.RankOneSignal(segs)
            t0 = start + f0 * span
            t1 = t0 + f1 * (edges[-1] - t0)
        check_pieces(sig, t0, t1)

    def test_period_must_equal_span(self):
        seg = signals.Segment(0.0, 1.0, np.array([0.3, 0.4]))
        with pytest.raises(ValueError, match="period"):
            signals.RankOneSignal((seg,), period=1.5)
        mats = signals.Segment(0.0, 1.0, np.eye(2)[None])
        with pytest.raises(ValueError, match="period"):
            signals.MatrixSignal((mats,), period=0.5)


class TestMatrixSignal:
    def test_psd_validation(self):
        data = -np.eye(2)[None]
        with pytest.raises(ValueError):
            signals.MatrixSignal((signals.Segment(0.0, 1.0, data),))

    def test_symmetry_validation(self):
        data = np.array([[[0.0, 1.0], [0.0, 0.0]]])
        with pytest.raises(ValueError):
            signals.MatrixSignal((signals.Segment(0.0, 1.0, data),))

    def test_trace(self):
        data = np.stack([np.diag([1.0, 2.0]), np.diag([3.0, 4.0])])
        sig = signals.MatrixSignal((signals.Segment(0.0, 1.0, data),))
        assert np.trace(sig.matrix(0.0)) == pytest.approx(3.0)
        assert np.trace(sig.matrix(1.0)) == pytest.approx(7.0)


class TestGram:
    def riemann(self, sig, t0, t1, n=200_000):
        ts = np.linspace(t0, t1, n, endpoint=False) + (t1 - t0) / (2 * n)
        acc = sum(matrix_at(sig, t) for t in ts[:: n // 2000])
        # coarse stride keeps the oracle honest but cheap
        return acc * (t1 - t0) / len(ts[:: n // 2000])

    def test_constant_rank_one(self):
        sig = const_angle_signal(0.8, 2.0)
        G = signals.gram(sig, 0.0, 2.0)
        c = sig.c(0.0)
        assert G == pytest.approx(2.0 * np.outer(c, c), abs=1e-12)

    def test_against_riemann_oracle(self):
        rng = np.random.default_rng(11)
        seg = signals.Segment(0.0, 1.5, rng.uniform(-2, 2, size=13))
        sig = signals.RankOneSignal((seg,), period=1.5)
        G = signals.gram(sig, 0.2, 2.9)
        assert G == pytest.approx(self.riemann(sig, 0.2, 2.9), abs=5e-4)

    @pytest.mark.parametrize("make", ["rank_one", "gained", "matrix"])
    def test_vectorized_equals_per_node_sum(self, make):
        # the loop it replaced: one S(t) read per quadrature node
        sig = extremal2d.build_optimal_control(1.0, 3.0)[0]
        if make == "gained":
            sig = signals.time_rescale(sig, 1.3)
        elif make == "matrix":  # sampled cc^T of the extremal's first half
            seg = sig.segments[0]
            cs = np.array([sig.c(t) for t in np.linspace(seg.t0, seg.t1, 513)])
            sig = signals.MatrixSignal(
                (signals.Segment(seg.t0, seg.t1, cs[:, :, None] * cs[:, None, :], 1.3),))
        t0, t1 = sig.t_start + 0.3, min(sig.horizon, sig.t_start + 5.5)
        ref = np.zeros((2, 2))
        for u0, u1, seg, _ in sig.pieces(t0, t1):
            cells = max(1, int(np.ceil((u1 - u0) / (seg.t1 - seg.t0)
                                       * signals._GRAM_SUBINTERVALS)))
            nodes, weights = signals._gauss_legendre(np.linspace(u0, u1, cells + 1))
            ref += sum(w * matrix_at(sig, t) for w, t in zip(weights, nodes))
        assert np.max(np.abs(signals.gram(sig, t0, t1) - 0.5 * (ref + ref.T))) <= 1e-14

    def test_additivity(self):
        rng = np.random.default_rng(12)
        seg = signals.Segment(0.0, 1.0, rng.uniform(-2, 2, size=9))
        sig = signals.RankOneSignal((seg,), period=1.0)
        whole = signals.gram(sig, 0.0, 1.0)
        split = signals.gram(sig, 0.0, 0.37) + signals.gram(sig, 0.37, 1.0)
        assert whole == pytest.approx(split, abs=1e-10)


class TestWindowChecks:
    def test_axis_hopping_satisfies_tight_bounds(self):
        sig = axis_hopping_control(1.0, 1.0, 3)
        report, = signals.verify_pe(sig, 1.0, 1.0, 1.0, [sig.t_start])
        assert report.satisfies
        assert report.gram_eigen_min == pytest.approx(1.0, abs=1e-9)
        assert report.gram_eigen_max == pytest.approx(1.0, abs=1e-9)

    def test_violation_detected(self):
        sig = const_angle_signal(0.0, 1.0, period=1.0)  # rank one, never excites e2
        report, = signals.verify_pe(sig, 0.1, 2.0, 1.0, [sig.t_start])
        assert not report.satisfies
        assert report.gram_eigen_min == pytest.approx(0.0, abs=1e-12)

    def test_window_sweep(self):
        sig = axis_hopping_control(0.5, 2.0, 2)
        reports = signals.verify_pe(sig, 0.5, 0.5, 2.0, [0.0, 0.5, 1.0], tol=1e-8)
        assert all(r.satisfies for r in reports)

    def test_aperiodic_window_overflow(self):
        sig = const_angle_signal(0.3, 1.0)
        with pytest.raises(ValueError):
            signals.verify_pe(sig, 0.1, 1.0, 1.0, [0.5])


class TestConstructions:
    def test_axis_hopping_gram(self):
        for n in (2, 3, 5):
            sig = axis_hopping_control(0.7, 1.4, n)
            G = signals.gram(sig, 0.0, 1.4)
            assert G == pytest.approx(0.7 * np.eye(n), abs=1e-9)

    def test_reflect_extend_periodic_and_continuous(self):
        # the synthesized control is its first half and that half's image
        # under the fixed mirror D = diag(1, -1), at unit and small scale
        D = np.diag([1.0, -1.0])
        for a, b in ((1.0, 3.0), (0.001, 0.001)):
            full = extremal2d.build_optimal_control(a, b)[0]
            T = a + b
            assert full.period == pytest.approx(2 * T, rel=1e-12)
            for seam in (T, 2 * T):
                cL = full.c(seam - 1e-9 * T)
                cR = full.c(seam + 1e-9 * T)
                assert min(np.linalg.norm(cL - cR), np.linalg.norm(cL + cR)) < 1e-6
            # second half is the forward D-image of the first, up to overall sign
            for s in (0.1, 0.45, 0.8):
                img = D @ full.c(s * T)
                got = full.c((1.0 + s) * T)
                assert min(np.linalg.norm(img - got), np.linalg.norm(img + got)) < 1e-12

    def test_time_rescale_gram_invariant(self):
        for sig in (axis_hopping_control(1.0, 2.0, 2),
                    extremal2d.build_optimal_control(1.0, 3.0)[0]):
            P = sig.period
            for lam in (0.5, 2.0, 3.7):
                fast = signals.time_rescale(sig, lam)
                assert type(fast) is type(sig)
                assert fast.period == pytest.approx(P / lam)
                G = signals.gram(fast, 0.0, P / lam)
                assert G == pytest.approx(signals.gram(sig, 0.0, P), abs=1e-8)

    @given(st.floats(0.25, 4.0), st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_time_rescale_pointwise(self, lam, smooth):
        # an exact relabelling: agreement to rounding, relative to |S|
        sig = (extremal2d.build_optimal_control(1.0, 3.0)[0] if smooth
               else axis_hopping_control(1.0, 2.0, 2))
        fast = signals.time_rescale(sig, lam)
        for s in (0.1, 0.6, 1.3):
            if s < sig.period / lam:
                want = lam * matrix_at(sig, lam * s)
                err = np.max(np.abs(matrix_at(fast, s) - want))
                assert err <= 1e-13 * np.max(np.abs(want))


class TestSerialization:
    def test_round_trip_rank_one(self, tmp_path):
        rng = np.random.default_rng(2)
        seg = signals.Segment(0.0, 1.0, rng.uniform(-3, 3, size=17))
        sig = signals.RankOneSignal((seg,), period=1.0)
        path = tmp_path / "sig.json"
        write_signal(sig, str(path))
        back = signals.load_signal(str(path))
        assert isinstance(back, signals.RankOneSignal)
        assert back.period == sig.period
        for t in np.linspace(0, 1, 9):
            assert back.c(t) == pytest.approx(sig.c(t), abs=1e-12)

    def test_round_trip_gained(self, tmp_path):
        sig = signals.time_rescale(extremal2d.build_optimal_control(1.0, 3.0)[0], 2.5)
        path = tmp_path / "fast.json"
        write_signal(sig, str(path))
        assert all(seg["gain"] == 2.5 for seg in json.loads(path.read_text())["segments"])
        back = signals.load_signal(str(path))
        assert isinstance(back, signals.RankOneSignal)
        assert [seg.gain for seg in back.segments] == [2.5]
        for t in np.linspace(0, back.period, 9):
            assert np.array_equal(matrix_at(back, t), matrix_at(sig, t))

    @pytest.mark.parametrize("field, text", [("data", "[null]"), ("t1", "1e999"),
                                             ("gain", "0")])
    def test_bad_segment_field_is_named(self, field, text):
        doc = signals.signal_to_dict(axis_hopping_control(1.0, 1.0, 2))
        doc["segments"][1][field] = "BAD"  # stands for JSON text json.dumps would not write
        with pytest.raises(ValueError, match=f"segment 1 field '{field}'"):
            signals.signal_from_dict(json.loads(json.dumps(doc).replace('"BAD"', text)))

    def test_round_trip_matrix(self, tmp_path):
        sig = axis_hopping_control(1.0, 1.0, 3)
        path = tmp_path / "axis.json"
        write_signal(sig, str(path))
        back = signals.load_signal(str(path))
        assert isinstance(back, signals.MatrixSignal)
        for t in np.linspace(0, 1, 7):
            assert back.matrix(t) == pytest.approx(sig.matrix(t), abs=1e-12)

    def test_no_partial_file_on_failure(self, tmp_path):
        # write_atomic is what --out uses: a write that fails before or at
        # the rename leaves neither the target nor its temp file behind
        target = tmp_path / "sub" / "sig.json"
        with pytest.raises(OSError):
            signals.write_atomic(str(target), "{}")  # parent dir missing
        assert not target.exists()
        target = tmp_path / "taken"
        target.mkdir()
        with pytest.raises(OSError):
            signals.write_atomic(str(target), "{}")  # the rename onto a directory fails
        assert target.is_dir() and sorted(p.name for p in tmp_path.iterdir()) == ["taken"]

    def test_schema_fields(self, tmp_path):
        sig = axis_hopping_control(1.0, 1.0, 2)
        path = tmp_path / "axis.json"
        write_signal(sig, str(path))
        doc = json.loads(path.read_text())
        assert set(doc) == {"dim", "period", "segments"}
        assert doc["segments"][0]["kind"] == "matrices"
        assert set(doc["segments"][0]) == {"t0", "t1", "kind", "data"}  # gain 1 is not written
