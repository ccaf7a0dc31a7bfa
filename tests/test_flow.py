"""Adaptive integration, spherical flow trajectories, and decay reports.

Oracles are closed forms: scalar exponentials, constant rank-one decay
along a fixed direction, matrix exponentials for constant coefficients,
and the axis-hopping control whose monodromy is exactly e^{-a} I.
"""
from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from peflow import cli, extremal2d, flow, gain, gpe, oracle, signals

from controls import axis_hopping_control, matrix_at


class TestAdaptiveRK45:
    def test_scalar_exponential(self):
        ts, ys, _ = flow.adaptive_rk45(lambda t, y: [-2.0 * y[0]], 0.0, 3.0,
                                       [1.0], tol=1e-11)
        assert ts[-1] == 3.0
        assert ys[-1][0] == pytest.approx(math.exp(-6.0), rel=1e-9)

    def test_breakpoints_are_hit(self):
        # piecewise-constant rate: exact answer requires landing on the jumps;
        # two samples per segment make propagate integrate both pieces by RK45
        segs = (signals.Segment(0.0, 0.5, np.ones((2, 1, 1))),
                signals.Segment(0.5, 1.0, np.full((2, 1, 1), 3.0)))
        ts, ys = flow.propagate(signals.MatrixSignal(segs, dim=1), np.array([1.0]),
                                0.0, 1.0, tol=1e-10)
        assert 0.5 in ts
        assert ys[-1][0] == pytest.approx(math.exp(-0.5 - 1.5), rel=1e-8)

    @pytest.mark.parametrize("tol", [-1.0, 0.0, math.inf, math.nan])
    def test_bad_tol_raises(self, tol):
        # tol = -1 used to integrate y' = -y to 0.36791 instead of e^-1
        with pytest.raises(ValueError, match="finite tol > 0"):
            flow.adaptive_rk45(lambda t, y: [-y[0]], 0.0, 1.0, [1.0], tol=tol)

    def test_step_underflow_raises(self):
        # a step across a jump the integrator is not told about never
        # passes the error test, so the step shrinks until it underflows
        def f(t, y):
            return np.array([0.0 if t < 0.5 else 1e300])

        with pytest.raises(flow.IntegrationError, match="underflow"):
            flow.adaptive_rk45(f, 0.0, 1.0, np.array([0.0]), tol=1e-13)


def constant_direction(phi=0.0, T=1.0, period=None):
    seg = signals.Segment(0.0, T, np.array([2 * phi, 2 * phi]))
    return signals.RankOneSignal((seg,), period=period)


class TestIntegrateFlow:
    def test_zero_signal_is_static(self):
        # a matrix signal has no spherical layout: the plain flow, normalized
        data = np.zeros((1, 2, 2))
        sig = signals.MatrixSignal((signals.Segment(0.0, 1.0, data),))
        om0 = np.array([0.6, 0.8])
        _, ys = flow.propagate(sig, om0, 0.0, 1.0)
        assert ys[-1] / np.linalg.norm(ys[-1]) == pytest.approx(om0, abs=1e-12)
        assert math.log(np.linalg.norm(ys[-1])) == pytest.approx(0.0, abs=1e-12)

    def test_constant_rank_one_aligned(self):
        # omega starts on the excited axis and stays there; r decays as e^{-t}
        sig = constant_direction(0.0, 2.0)
        traj = flow.integrate_flow(sig, np.array([1.0, 0.0]), 0.0, 2.0)
        assert traj.omegas[-1] == pytest.approx([1.0, 0.0], abs=1e-10)
        assert traj.log_r[-1] == pytest.approx(-2.0, rel=1e-9)
        assert traj.cost == pytest.approx(2.0, rel=1e-9)

    def test_constant_rank_one_orthogonal(self):
        # omega orthogonal to the excited direction: nothing moves
        sig = constant_direction(0.0, 1.0)
        traj = flow.integrate_flow(sig, np.array([0.0, 1.0]), 0.0, 1.0)
        assert traj.omegas[-1] == pytest.approx([0.0, 1.0], abs=1e-10)
        assert traj.cost == pytest.approx(0.0, abs=1e-10)

    def test_isotropic_signal(self):
        # S = I: omega frozen, log r drops linearly with slope 1
        data = np.stack([np.eye(2)] * 2)
        sig = signals.MatrixSignal((signals.Segment(0.0, 1.5, data),))
        om0 = np.array([3.0, 4.0]) / 5.0
        _, ys = flow.propagate(sig, om0, 0.0, 1.5, tol=1e-12)
        assert ys[-1] / np.linalg.norm(ys[-1]) == pytest.approx(om0, abs=1e-10)
        assert -math.log(np.linalg.norm(ys[-1])) == pytest.approx(1.5, rel=1e-10)

    def test_unit_norm_required(self):
        sig = constant_direction(0.0, 1.0)
        with pytest.raises(ValueError):
            flow.integrate_flow(sig, np.array([1.0, 1.0]), 0.0, 1.0)

    def test_omega_stays_unit(self):
        sig = extremal2d.build_optimal_control(1.0, 3.0)[0]
        traj = flow.integrate_flow(sig, np.array([0.6, 0.8]), 0.0, 7.0)
        assert np.linalg.norm(traj.omegas, axis=1) == pytest.approx(1.0, abs=1e-7)


class TestPropagate:
    def test_input_path_on_zero_signal(self):
        # S = 0: x = u t, int |x|^2 = |u|^2 t^3 / 3, int |u|^2 = |u|^2 t
        sig = signals.MatrixSignal((signals.Segment(0.0, 2.0, np.zeros((1, 2, 2))),))
        uv = np.array([0.6, -1.7])
        ts, ys = flow.propagate(sig, np.zeros(2), 0.0, 2.0, tol=1e-12,
                                u=lambda t: uv)
        u2 = float(uv @ uv)
        assert ts[-1] == 2.0
        assert ys[-1, :2] == pytest.approx(2.0 * uv, rel=1e-12)
        assert ys[-1, 2] == pytest.approx(u2 * 8.0 / 3.0, rel=1e-12)
        assert ys[-1, 3] == pytest.approx(u2 * 2.0, rel=1e-12)
        assert ys[:, :2] == pytest.approx(ts[:, None] * uv, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("kind", ["rank_one", "gained", "matrix"])
    def test_constant_piece_is_exact(self, kind):
        # one exact step per constant piece: exp(-dt S), not an RK approximation
        if kind != "matrix":
            seg = signals.Segment(0.0, 1.7, np.array([1.1]), 2.3 if kind == "gained" else 1.0)
            sig = signals.RankOneSignal((seg,))
            S = matrix_at(sig, 0.0)
        else:
            B = np.random.default_rng(3).normal(size=(3, 3))
            S = B @ B.T
            sig = signals.MatrixSignal((signals.Segment(0.0, 1.7, S[None]),), dim=3)
        Phi = flow.fundamental_matrix(sig, 0.0, 1.7)
        assert np.max(np.abs(Phi - expm(-1.7 * S))) <= 1e-13

    def test_jump_keeps_steps_large(self):
        # a smooth segment followed by a jump: stages landing on the jump read
        # the left limit, so the step size does not collapse there
        grid = np.linspace(0.0, 1.0, 33)
        first = np.stack([np.diag([1.0 + np.sin(3 * t), 2.0 - t]) for t in grid])
        second = np.stack([np.diag([0.2 + t, 4.0 + np.cos(t)]) for t in grid + 1.0])
        sig = signals.MatrixSignal((signals.Segment(0.0, 1.0, first),
                                    signals.Segment(1.0, 2.0, second)))
        ts, _ = flow.propagate(sig, np.array([0.6, 0.8]), 0.0, 2.0)
        assert 1.0 in ts
        assert np.min(np.diff(ts)) > 1e-4

    @pytest.mark.parametrize("length", [1, 3])
    @pytest.mark.parametrize("layout", ["plain", "spherical", "input"])
    def test_x0_length_must_match_dim(self, layout, length):
        # a length-1 x0 on a planar signal used to integrate only x' = -S11 x
        sig = extremal2d.build_optimal_control(1.0, 3.0)[0]
        x0 = np.eye(length)[0]
        kwargs = {"spherical": layout == "spherical",
                  "u": (lambda t: np.zeros(2)) if layout == "input" else None}
        with pytest.raises(ValueError, match=rf"\({length},\).*dimension 2"):
            flow.propagate(sig, x0, 0.0, 1.0, **kwargs)
        if layout == "spherical":
            with pytest.raises(ValueError, match="dimension 2"):
                flow.integrate_flow(sig, x0, 0.0, 1.0)

    @pytest.mark.parametrize("layout", ["planar", "vector", "block"])
    def test_input_needs_the_plain_vector_layout(self, layout):
        # the spherical layout and column blocks carry the free flow only, so
        # an input there must raise, not be dropped, at any dimension
        dim = 3 if layout == "vector" else 2
        sig = (axis_hopping_control(1.0, 1.0, 3) if layout == "vector"
               else extremal2d.build_optimal_control(1.0, 3.0)[0])
        x0 = np.eye(dim) if layout == "block" else np.eye(dim)[0]
        with pytest.raises(ValueError, match="input u fits only a vector x0 with spherical=False"):
            flow.propagate(sig, x0, 0.0, 1.0, spherical=layout != "block",
                           u=lambda t: np.ones(dim))

    @pytest.mark.parametrize("dim", [1, 3])
    def test_spherical_layout_is_planar_only(self, dim):
        # (theta, log r) is the only spherical layout; other dimensions must
        # raise rather than integrate some other state
        sig = axis_hopping_control(1.0, 1.0, dim)
        omega0 = np.eye(dim)[0]
        with pytest.raises(ValueError, match=f"planar only, not of dimension {dim}"):
            flow.propagate(sig, omega0, 0.0, 1.0, spherical=True)
        with pytest.raises(ValueError, match=f"dimension {dim}"):
            flow.integrate_flow(sig, omega0, 0.0, 1.0)

    def test_spherical_layout_is_rank_one_only(self):
        # a planar matrix signal has no (theta, log r) right-hand side
        sig = axis_hopping_control(1.0, 1.0, 2)
        with pytest.raises(ValueError, match="spherical layout is rank-one only"):
            flow.propagate(sig, np.array([0.6, 0.8]), 0.0, 1.0, spherical=True)
        with pytest.raises(ValueError, match="rank-one only"):
            flow.integrate_flow(sig, np.array([0.6, 0.8]), 0.0, 1.0)


def sampled_matrix_twin(sig, m=2048):
    """sig as a MatrixSignal: per segment, m samples of its g cc^T."""
    segs = []
    for seg in sig.segments:
        at = seg.reader()
        cs = sig._units(np.array([at(t) for t in np.linspace(seg.t0, seg.t1, m)]))
        segs.append(signals.Segment(seg.t0, seg.t1, seg.gain * np.einsum("ki,kj->kij", cs, cs)))
    return signals.MatrixSignal(tuple(segs), dim=2, period=sig.period)


class TestRankOneRightHandSides:
    """A rank-one control reads one angle per stage; the S-rows right-hand
    side of its sampled matrix twin integrates the same flow (the spherical
    flow against the twin's plain one, normalized)."""

    @pytest.fixture(params=["periodic extremal", "gained chain"])
    def pair(self, request):
        if request.param == "periodic extremal":
            sig = extremal2d.build_optimal_control(1.0, 3.0)[0]
        else:
            s = gpe.GPESchedule((1.0, 0.5, 2.0), (3.0, 0.5, 5.0), (1.0, 2.5, 3.2))
            sig = gpe.build_gpe_signal(s)[0]
        return sig, sampled_matrix_twin(sig)

    def test_planar_flow(self, pair):
        sig, twin = pair
        om0 = np.array([0.6, -0.8])
        end = flow.integrate_flow(sig, om0, sig.t_start, sig.horizon, tol=1e-12)
        x = flow.propagate(twin, om0, twin.t_start, twin.horizon, tol=1e-12)[1][-1]
        assert end.log_r[-1] == pytest.approx(math.log(np.linalg.norm(x)), abs=1e-9)
        assert end.omegas[-1] == pytest.approx(x / np.linalg.norm(x), abs=1e-9)

    def test_fundamental_matrix(self, pair):
        t0, t1 = pair[0].t_start, pair[0].horizon
        Phis = [flow.fundamental_matrix(sig, t0, t1, tol=1e-12) for sig in pair]
        assert Phis[0] == pytest.approx(Phis[1], abs=1e-9)

    def test_input_layout(self, pair):
        def u(t):
            return np.array([math.cos(t), math.sin(2.0 * t)])
        t0, t1 = pair[0].t_start, pair[0].horizon
        ends = [flow.propagate(sig, np.array([0.3, 0.1]), t0, t1, tol=1e-12, u=u)[1][-1]
                for sig in pair]
        assert ends[0] == pytest.approx(ends[1], abs=1e-9)


class TestAngleLayout:
    """The planar spherical flow integrates (theta, log r) with
    omega = (cos(theta/2), sin(theta/2))."""

    @pytest.mark.parametrize("quadrant", range(4))
    def test_constant_direction_closed_form(self, quadrant):
        # two equal samples: a smooth segment, so RK45 runs, not the exact step;
        # x(t) = x0 + expm1(-g t) (c . x0) c
        g, phi = 2.3, 0.7
        sig = signals.RankOneSignal((signals.Segment(0.0, 1.5, np.array([phi, phi]), g),))
        psi = 0.4 + quadrant * math.pi / 2
        om0 = np.array([math.cos(psi), math.sin(psi)])
        traj = flow.integrate_flow(sig, om0, 0.0, 1.5, tol=1e-12)
        c = np.array([math.cos(phi / 2), math.sin(phi / 2)])
        x = om0 + np.expm1(-g * traj.ts)[:, None] * (om0 @ c) * c
        nrm = np.linalg.norm(x, axis=1)
        assert len(traj.ts) > 2
        assert traj.log_r == pytest.approx(np.log(nrm), abs=1e-11)
        assert traj.omegas == pytest.approx(x / nrm[:, None], abs=1e-11)

    @pytest.mark.parametrize("om0", [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0),
                                     (-0.6, -0.8)])
    def test_initial_direction_round_trip(self, om0):
        sig = extremal2d.build_optimal_control(1.0, 3.0)[0]
        traj = flow.integrate_flow(sig, np.array(om0), 0.0, 0.5)
        assert traj.omegas[0] == pytest.approx(om0, abs=1e-15)

    @pytest.mark.parametrize("a, b", [(1.0, 3.0), (0.5, 0.5)])
    def test_long_chain_against_windowed_plain_flow(self, a, b):
        # 200 windows: the state angle turns through about 333 rad and log r
        # reaches about -96 at (1, 3); each RK piece starts from a rebased
        # angle and log r = 0, so the error does not grow with either
        s = gpe.GPESchedule.constant(a, b, 1.0, 200)
        sig, om0 = gpe.build_gpe_signal(s)
        traj = flow.integrate_flow(sig, om0, 0.0, s.tau_seq[-1])
        got = traj.log_r[np.searchsorted(traj.ts, s.tau_seq)]
        x, log_r, ref = om0, 0.0, []
        for u0, u1 in zip((0.0,) + s.tau_seq, s.tau_seq):
            _, ys = flow.propagate(sig, x, u0, u1, tol=1e-13)
            nrm = np.linalg.norm(ys[-1])
            log_r += math.log(nrm)
            x = ys[-1] / nrm
            ref.append(log_r)
        assert np.max(np.abs(got - ref)) <= 2e-7


def unit_block(*angles):
    """The (2, k) block of unit columns (cos psi, sin psi)."""
    return np.array([[math.cos(psi) for psi in angles], [math.sin(psi) for psi in angles]])


class TestSphericalBlock:
    """A (2, k) block of unit columns is one spherical flow: its state is
    (theta_1..theta_k, log r_1..log r_k), each column reading the same angle
    per stage, and each column follows its own single-column flow."""

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("kind", ["periodic extremal", "gained chain"])
    def test_columns_match_their_own_flows(self, kind, k):
        if kind == "periodic extremal":
            sig = extremal2d.build_optimal_control(1.0, 3.0)[0]
        else:
            s = gpe.GPESchedule((1.0, 0.5, 2.0), (3.0, 0.5, 5.0), (1.0, 2.5, 3.2))
            sig = gpe.build_gpe_signal(s)[0]
        block = unit_block(*(-0.9 + 1.3 * j for j in range(k)))
        traj = flow.integrate_flow(sig, block, sig.t_start, sig.horizon, tol=1e-12)
        assert traj.omegas.shape == (len(traj.ts), 2, k) and traj.log_r.shape == (len(traj.ts), k)
        for j in range(k):
            own = flow.integrate_flow(sig, block[:, j], sig.t_start, sig.horizon, tol=1e-12)
            assert traj.log_r[-1, j] == pytest.approx(own.log_r[-1], abs=1e-9)
            assert traj.omegas[-1, :, j] == pytest.approx(own.omegas[-1], abs=1e-9)

    def test_constant_pieces_step_exactly(self):
        # one sample per segment: each piece maps every column by exp(-dt S)
        segs = (signals.Segment(0.0, 0.7, np.array([0.4]), 1.5),
                signals.Segment(0.7, 1.1, np.array([2.9]), 3.0),
                signals.Segment(1.1, 2.0, np.array([-1.2])))
        sig = signals.RankOneSignal(segs)
        block = unit_block(0.3, 2.2)
        traj = flow.integrate_flow(sig, block, 0.0, 2.0)
        X = block
        for seg in segs:
            c = sig._unit(float(seg.data[0]))
            X = expm(-(seg.t1 - seg.t0) * seg.gain * np.outer(c, c)) @ X
        assert list(traj.ts) == [0.0, 0.7, 1.1, 2.0]
        assert traj.log_r[-1] == pytest.approx(np.log(np.linalg.norm(X, axis=0)), abs=1e-13)
        assert traj.omegas[-1] == pytest.approx(X / np.linalg.norm(X, axis=0), abs=1e-13)

    def test_long_chain_rebases_each_column(self, monkeypatch):
        # 200 windows turn each state angle through hundreds of radians; each
        # theta_j enters every RK piece rebased by its own multiple of 2 pi
        # into [-pi, pi], and each log r_j at 0.  The second column is not
        # om0's perpendicular: that one contracts fastest, so the slow
        # direction amplifies its rounding error by e^{3 ell} and its log r
        # is decided by that error, not by the flow
        starts = []
        original = flow.adaptive_rk45

        def recording(f, t0, t1, y0, *args, **kwargs):
            starts.append(list(y0))
            return original(f, t0, t1, y0, *args, **kwargs)

        s = gpe.GPESchedule.constant(1.0, 3.0, 1.0, 200)
        sig, om0 = gpe.build_gpe_signal(s)
        block = np.column_stack([om0, (math.cos(0.7) * om0[0] - math.sin(0.7) * om0[1],
                                       math.sin(0.7) * om0[0] + math.cos(0.7) * om0[1])])
        monkeypatch.setattr(flow, "adaptive_rk45", recording)
        traj = flow.integrate_flow(sig, block, 0.0, s.tau_seq[-1])
        monkeypatch.undo()
        assert len(starts) == 200
        assert all(abs(v) <= math.pi for y0 in starts for v in y0[:2])
        assert all(y0[2:] == [0.0, 0.0] for y0 in starts)
        got = traj.log_r[np.searchsorted(traj.ts, s.tau_seq)]
        X, log_r, ref = block, np.zeros(2), []
        for u0, u1 in zip((0.0,) + s.tau_seq, s.tau_seq):
            _, ys = flow.propagate(sig, X, u0, u1, tol=1e-13)
            nrm = np.linalg.norm(ys[-1].reshape(2, 2), axis=0)
            log_r = log_r + np.log(nrm)
            X = ys[-1].reshape(2, 2) / nrm
            ref.append(log_r)
        assert np.max(np.abs(got - np.array(ref))) <= 2e-7

    def test_bad_blocks_raise(self):
        # propagate itself checks: a column of norm 2 would come out with
        # log r off by log 2, and no error
        sig = extremal2d.build_optimal_control(1.0, 3.0)[0]
        block = unit_block(0.3, 2.2)
        block[:, 1] *= 1.01
        for x0 in (block, np.array([2.0, 0.0])):
            with pytest.raises(ValueError, match="unit vector or a block of unit columns"):
                flow.propagate(sig, x0, 0.0, 1.0, spherical=True)
        with pytest.raises(ValueError, match="block of unit columns"):
            flow.integrate_flow(sig, block, 0.0, 1.0)
        with pytest.raises(ValueError, match="input u fits only a vector x0 with spherical=False"):
            flow.propagate(sig, unit_block(0.3, 2.2), 0.0, 1.0, spherical=True,
                           u=lambda t: np.ones(2))


@st.composite
def smooth_signals(draw):
    """A random smooth rank-one or matrix signal of 1-3 segments, with a unit omega0."""
    rank_one = draw(st.booleans())
    n = 2 if rank_one else draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lengths = draw(st.lists(st.floats(0.2, 1.5), min_size=1, max_size=3))
    edges = np.concatenate([[0.0], np.cumsum(lengths)])
    segs = []
    for t0, t1 in zip(edges[:-1], edges[1:]):
        m = draw(st.integers(2, 8))
        if rank_one:
            data = np.cumsum(rng.normal(scale=0.8, size=m))
        else:
            B = rng.normal(size=(m, n, n))
            data = np.einsum("kij,klj->kil", B, B)
        segs.append(signals.Segment(float(t0), float(t1), data))
    period = float(edges[-1]) if draw(st.booleans()) else None
    cls = signals.RankOneSignal if rank_one else signals.MatrixSignal
    sig = cls(tuple(segs), dim=n, period=period)
    omega0 = rng.normal(size=n)
    return sig, omega0 / np.linalg.norm(omega0)


class TestLayoutsAgree:
    """The plain, column-block, spherical and input layouts of propagate's
    right-hand side integrate the same flow; the spherical one only for a
    rank-one signal in the plane."""

    @given(smooth_signals())
    @settings(max_examples=30, deadline=None)
    def test_layouts_agree(self, case):
        sig, omega0 = case
        n, t0, t1, tol = sig.dim, sig.t_start, sig.horizon, 1e-13
        _, ys = flow.propagate(sig, omega0, t0, t1, tol=tol)
        x = ys[-1]
        if isinstance(sig, signals.RankOneSignal):
            traj = flow.integrate_flow(sig, omega0, t0, t1, tol=tol)
            assert traj.log_r[-1] == pytest.approx(math.log(np.linalg.norm(x)), abs=1e-9)
            assert traj.omegas[-1] == pytest.approx(x / np.linalg.norm(x), abs=1e-9)
        else:
            with pytest.raises(ValueError, match="rank-one only" if n == 2 else f"dimension {n}"):
                flow.integrate_flow(sig, omega0, t0, t1, tol=tol)

        Phi = flow.fundamental_matrix(sig, t0, t1, tol=tol)
        for j, e_j in enumerate(np.eye(n)):
            _, ys_j = flow.propagate(sig, e_j, t0, t1, tol=tol)
            assert Phi[:, j] == pytest.approx(ys_j[-1], abs=1e-9)

        _, ys_u = flow.propagate(sig, omega0, t0, t1, tol=tol, u=lambda t: np.zeros(n))
        assert ys_u[-1, :n] == pytest.approx(x, abs=1e-9)
        assert ys_u[-1, n + 1] == 0.0


class TestCostAndMonodromy:
    def test_cost_matches_gram_projection_constant(self):
        # aligned constant direction: J over [0, T] equals the Gram mass T
        sig = constant_direction(0.0, 0.8)
        assert flow.cost_J(sig, np.array([1.0, 0.0]), 0.8) == pytest.approx(0.8, rel=1e-9)

    def test_fundamental_matrix_constant_coefficients(self):
        c = np.array([math.cos(0.4), math.sin(0.4)])
        S = np.outer(c, c) + 0.3 * np.eye(2)
        sig = signals.MatrixSignal((signals.Segment(0.0, 1.3, np.stack([S, S])),))
        Phi = flow.fundamental_matrix(sig, 0.0, 1.3, tol=1e-11)
        assert Phi == pytest.approx(expm(-1.3 * S), rel=1e-9, abs=1e-11)

    def test_axis_hopping_monodromy(self):
        a, T = 0.7, 1.4
        sig = axis_hopping_control(a, T, 2)
        Phi = flow.fundamental_matrix(sig, 0.0, T, tol=1e-11)
        assert Phi == pytest.approx(math.exp(-a) * np.eye(2), abs=1e-9)


class TestDecayRate:
    def test_periodic_monodromy_rate(self):
        a, T = 0.7, 1.4
        sig = axis_hopping_control(a, T, 2)
        report = flow.decay_rate(sig)
        assert report.method == "monodromy"
        assert not report.finite_horizon
        assert report.rate == pytest.approx(a / T, rel=1e-7)
        assert report.contraction_per_period == pytest.approx(math.exp(-a), rel=1e-7)
        # slope diagnostic agrees with the eigenvalue route
        assert report.slope_rate == pytest.approx(report.rate, rel=1e-6)

    def test_aperiodic_slope_surrogate(self):
        sig = constant_direction(0.0, 4.0)
        report = flow.decay_rate(sig)
        assert report.finite_horizon
        assert report.method == "slope"
        # only one axis decays, so the worst direction has rate zero
        assert report.rate == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_tol_raises_on_exact_pieces(self, tol):
        # every piece is constant, so adaptive_rk45 never sees the tol
        with pytest.raises(ValueError, match="tol"):
            flow.decay_rate(axis_hopping_control(1.0, 1.0, 2), tol=tol)

    def test_rate_scales_with_amplitude(self):
        r1 = flow.decay_rate(axis_hopping_control(0.4, 1.0, 2)).rate
        r2 = flow.decay_rate(axis_hopping_control(0.8, 1.0, 2)).rate
        assert r2 == pytest.approx(2.0 * r1, rel=1e-8)


class TestWorkCounters:
    """Right-hand-side evaluations are exact and rerun-stable, so they gate
    integrator regressions without timing.  The bounds are the counts of
    the piecewise propagator; a better one may lower them."""

    @pytest.fixture
    def rhs_count(self, monkeypatch):
        count = [0]
        original = flow.adaptive_rk45

        def counting(f, *args, **kwargs):
            def counted(t, y):
                count[0] += 1
                return f(t, y)
            return original(counted, *args, **kwargs)

        monkeypatch.setattr(flow, "adaptive_rk45", counting)

        def measure(call):
            count[0] = 0
            call()
            return count[0]
        return measure

    def test_rhs_evaluations(self, rhs_count):
        sig, om0, _ = extremal2d.build_optimal_control(1.0, 3.0)
        P = sig.period
        assert rhs_count(lambda: flow.integrate_flow(sig, om0, 0.0, P)) <= 530
        assert rhs_count(lambda: flow.fundamental_matrix(sig, 0.0, P)) <= 494
        # the worst input reads the closed-form extremal: its moments and its
        # direction spline solve no ODE
        params, traj = extremal2d.solve_extremal(0.5, 1.5)
        u = gain.worst_input(params, traj)
        assert rhs_count(lambda: (gain.worst_input(params, traj).moments, u.m(1.0))) == 0
        assert rhs_count(lambda: gain.simulate_gain(u, k_periods=3)) <= 3280

    def test_gain_estimate_work_is_independent_of_horizon(self, rhs_count):
        # the k-period ratio is in closed form from the closed-form extremal
        counts = [rhs_count(lambda: gain.gain_estimate(1.0, 3.0, 1.0, k_periods=k))
                  for k in (8, 5000)]
        assert counts == [0, 0]

    def test_gain_at_a_wide_ratio_makes_no_rk_evaluations(self, rhs_count, capsys):
        # (1, 1e8) is a half-window period RK45 refuses; gain no longer
        # integrates it.  Its ratio may still read NaN (the k-period sum
        # cancels at wide ratios), so only the exit path is pinned here
        def call():
            assert cli.main(["gain", "--a", "1", "--b", "1e8"]) in (0, 1)
        assert rhs_count(call) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "error" not in doc and doc["gain"]["mu_half"] > 0.0

    def test_mu_makes_no_rk_evaluations(self, rhs_count, capsys):
        assert rhs_count(lambda: extremal2d.mu(1.0, 3.0)) == 0
        assert rhs_count(lambda: cli.main(["mu", "--a", "1e-8", "--b", "1"])) == 0
        capsys.readouterr()
        # nor does the extremal's trajectory, which is in closed form
        assert rhs_count(lambda: extremal2d.solve_extremal(1.0, 3.0)) == 0

    def test_gpe_integrates_each_repeated_pair_once(self, rhs_count):
        def count(pairs, lengths):
            s = gpe.GPESchedule(tuple(a for a, _ in pairs), tuple(b for _, b in pairs),
                                tuple(itertools.accumulate(lengths)))
            return rhs_count(lambda: gpe.asymptotic_norm(s))
        # a repeated pair's map is one two-column template flow at tol 1e-10,
        # whatever the chain's length (403; two one-column flows took 739,
        # one chain flow 530, 1548, 51488)
        constant = {count([(1.0, 3.0)] * L, [1.0] * L) for L in (2, 6, 200)}
        assert len(constant) == 1 and constant.pop() <= 420
        mixed = [(1.0, 3.0), (0.5, 2.0), (1.0, 1.0), (2.0, 5.0)] * 5
        assert count(mixed, [0.5] * 20) <= 1700  # 1606; two flows per pair 3080
        # a pair used once is one one-column template flow, at tol 1e-10
        # where one chain flow ran at 1e-9 (1416)
        distinct = [(1.0, 3.0), (0.5, 2.0), (1.0, 1.0), (2.0, 5.0), (0.8, 1.2), (0.4, 1.6)]
        assert count(distinct, [1.0] * 6) <= 2300

    def test_gpe_solves_each_pair_once(self, monkeypatch):
        # asymptotic_norm solves the extremal once per distinct (a, b) of
        # the schedule, and its template's cubic with one banded solve,
        # however many windows repeat it
        calls, banded = [], [0]
        original, original_banded = extremal2d.solve_params, signals.solve_banded

        def counting(a, b):
            calls.append((a, b))
            return original(a, b)

        def counting_banded(*args, **kwargs):
            banded[0] += 1
            return original_banded(*args, **kwargs)

        monkeypatch.setattr(extremal2d, "solve_params", counting)
        monkeypatch.setattr(signals, "solve_banded", counting_banded)
        for repeats, length in ((2, 1.0), (5, 0.5)):
            pairs = [(1.0, 3.0), (0.5, 2.0), (1.0, 1.0), (2.0, 5.0)] * repeats
            s = gpe.GPESchedule(tuple(a for a, _ in pairs), tuple(b for _, b in pairs),
                                tuple(length * (k + 1) for k in range(len(pairs))))
            calls.clear()
            banded[0] = 0
            gpe.asymptotic_norm(s)
            assert (len(calls), banded[0]) == (4, 4), repeats

    def test_hopeless_extremal_fails_fast(self, rhs_count):
        # (1, 1e20) has no shape root inside the solve's bracket: the
        # extremal raises from the closed form, with no RK45 evaluation
        def call():
            with pytest.raises(ArithmeticError, match="shape solve residual"):
                extremal2d.solve_extremal(1.0, 1e20)
        assert rhs_count(call) == 0

    def test_step_budget_raises(self, rhs_count, monkeypatch):
        # adaptive_rk45 stops after flow._MAX_STEPS attempted steps, each
        # making 6 evaluations (7 for the first)
        sig, om0, _ = extremal2d.build_optimal_control(1.0, 3.0)
        monkeypatch.setattr(flow, "_MAX_STEPS", 20)

        def call():
            with pytest.raises(flow.IntegrationError, match="step budget"):
                flow.propagate(sig, om0, 0.0, sig.period, tol=1e-12)
        assert rhs_count(call) <= 6 * 20 + 1

    def test_stiff_piece_fails_before_any_step(self, rhs_count):
        # on a piece of gain g and length L, RK45's stability limit h < 3.3/g
        # alone needs L g/3.3 steps; past the budget it raises at once instead
        # of grinding through _MAX_STEPS steps (28 s for gpe at (1, 1e7)); a
        # matrix signal's gain is its segment gain times the largest trace
        sig, om0, _ = extremal2d.build_optimal_control(1.0, 1e7)
        seg = sig.segments[0]
        cs = signals.RankOneSignal._units(seg.data[::64])
        matrix = signals.MatrixSignal((signals.Segment(
            seg.t0, seg.t1, 0.5 * cs[:, :, None] * cs[:, None, :], 2.0),))

        def call(signal, **kw):
            with pytest.raises(flow.IntegrationError, match="stable only for h < 3.3/gain"):
                flow.propagate(signal, om0, 0.0, seg.t1, **kw)
        for signal, kw in ((sig, {}), (sig, {"spherical": True}), (matrix, {}),
                           (sig, {"u": lambda t: np.zeros(2)})):
            assert rhs_count(lambda: call(signal, **kw)) == 0

    def test_piece_past_the_stability_budget_fails_at_once(self, rhs_count):
        # RK45 crosses about 3.23 time units per step at gain 1, so a gain-1
        # piece 6.45e6 long cannot finish in _MAX_STEPS steps; it raises
        # before the first evaluation, not after the whole budget
        sig, om0, _ = extremal2d.build_optimal_control(1.0, 3.225e6 - 1.0)
        assert sig.period == 6.45e6 and sig.segments[0].gain == 1.0

        def call():
            with pytest.raises(flow.IntegrationError, match="stable only for h < 3.3/gain"):
                flow.propagate(sig, om0, 0.0, sig.period)
        assert rhs_count(call) == 0

    def test_piecewise_constant_flows_make_no_rk_evaluations(self, rhs_count):
        result = oracle.brute_force_mu2(1.0, 3.0, N=12, n_seeds=2)
        assert rhs_count(lambda: flow.cost_J(result.control, result.omega0, 4.0)) == 0
        hopping = axis_hopping_control(1.0, 1.0, 2)
        assert rhs_count(lambda: flow.decay_rate(hopping)) == 0


class TestSharedCubic:
    """One banded solve per cubic: gpe's repeated windows reuse their
    template's cubic, and a synthesized control's whole period is one segment,
    so one solve."""

    @pytest.fixture
    def solves(self, monkeypatch):
        count = [0]
        original = signals.solve_banded

        def counting(*args, **kwargs):
            count[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(signals, "solve_banded", counting)

        def measure(call):
            count[0] = 0
            call()
            return count[0]
        return measure

    def test_gpe_solves_once_per_pair(self, solves):
        pairs = [(1.0, 3.0), (0.5, 2.0), (1.0, 1.0), (2.0, 5.0)] * 5
        s = gpe.GPESchedule(tuple(a for a, _ in pairs), tuple(b for _, b in pairs),
                            tuple(0.5 * (k + 1) for k in range(len(pairs))))
        assert solves(lambda: gpe.asymptotic_norm(s)) == 4

    def test_full_period_is_one_solve(self, solves):
        def call():
            sig, om0, _ = extremal2d.build_optimal_control(1.0, 3.0)
            flow.integrate_flow(sig, om0, 0.0, sig.period)
        assert solves(call) == 1
