"""Window schedules, chained worst-case signals, and norm asymptotics.

The core contract: the chained signal's measured per-window contraction
matches exp(-mu_ell) predicted independently from the recovered window
Grams, and the series criterion sorts convergent from divergent
schedules.  Small L here; the L = 50 runs live in acceptance.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peflow import extremal2d, flow, gpe, signals

from controls import write_schedule


class TestSchedule:
    def test_constant_constructor(self):
        s = gpe.GPESchedule.constant(1.0, 2.0, 1.5, 4)
        assert s.length == 4
        assert (s.a_seq, s.b_seq) == ((1.0,) * 4, (2.0,) * 4)
        assert s.tau_seq == (1.5, 3.0, 4.5, 6.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            gpe.GPESchedule((1.0,), (0.5,), (1.0,))  # a > b
        with pytest.raises(ValueError):
            gpe.GPESchedule((1.0, 1.0), (1.0, 1.0), (1.0, 0.5))  # tau not increasing
        with pytest.raises(ValueError):
            gpe.GPESchedule((1.0,), (1.0,), (1.0,), tag="maybe")
        # non-finite entries fail at construction, not later in the flow or synthesis
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="tau_seq must be finite"):
                gpe.GPESchedule((1.0, 1.0), (1.0, 1.0), (1.0, bad))
        with pytest.raises(ValueError, match="a_seq must be finite"):
            gpe.GPESchedule((math.inf,), (math.inf,), (1.0,))
        with pytest.raises(ValueError, match="b_seq must be finite"):
            gpe.GPESchedule((1.0,), (math.nan,), (1.0,))
        # numbers only as numbers: float() would read a string or a boolean
        for seqs, name in [([("1", True), (3, 3), (1, 2)], "a_seq"),
                           ([(1, 1), (3, "3"), (1, 2)], "b_seq"),
                           ([(1,), (3,), (True,)], "tau_seq")]:
            with pytest.raises(ValueError, match=f"{name} must hold numbers"):
                gpe.GPESchedule(*seqs)

    def test_round_trip(self, tmp_path):
        s = gpe.GPESchedule((0.5, 1.0), (1.0, 1.0), (1.0, 3.0), tag="converges")
        path = tmp_path / "sched.json"
        write_schedule(s, str(path))
        back = gpe.load_schedule(str(path))
        assert back == s


class TestSeriesCriterion:
    def test_divergent_partial_sums(self):
        s = gpe.GPESchedule.constant(1.0, 1.0, 1.0, 5, tag="diverges")
        sums, verdict = gpe.series_criterion(s)
        assert verdict == "diverges"
        assert sums == pytest.approx([0.5 * (k + 1) for k in range(5)])

    def test_convergent_tail(self):
        a_seq = tuple(1.0 / (l + 1) ** 2 for l in range(30))
        b_seq = tuple(1.0 for _ in range(30))
        tau = tuple(float(l + 1) for l in range(30))
        sums, verdict = gpe.series_criterion(
            gpe.GPESchedule(a_seq, b_seq, tau, tag="converges"))
        assert verdict == "converges"
        assert sums[-1] < sum(1.0 / (l + 1) ** 2 for l in range(1000)) / 2 + 1.0

    def test_untagged_is_undetermined(self):
        s = gpe.GPESchedule.constant(1.0, 2.0, 1.0, 3)
        _, verdict = gpe.series_criterion(s)
        assert verdict == "undetermined"


class TestBuildAndMeasure:
    def test_single_window_matches_extremal(self):
        s = gpe.GPESchedule((1.0,), (3.0,), (4.0,))
        asym = gpe.asymptotic_norm(s)
        params = extremal2d.solve_params(1.0, 3.0)
        mu = extremal2d.integrate_extremal(params).mu
        assert asym.mu_seq[0] == pytest.approx(mu, rel=1e-7)
        assert asym.norms[0] == pytest.approx(math.exp(-mu), rel=1e-7)
        assert asym.max_rel_dev < 1e-6

    def test_window_samples_from_one_read(self):
        # the 2048-point read ends exactly at 0 and T, so its first and last
        # theta are the same bits as reading theta(0) and theta(T) alone
        _, template, theta_start, theta_end = gpe._synthesize_window(1.0, 3.0)
        _, traj = extremal2d.solve_extremal(1.0, 3.0)
        assert np.array_equal(template.data, traj.columns(np.linspace(0.0, 4.0, 2048))[..., 2])
        assert (theta_start, theta_end) == (float(traj.theta(0.0)), float(traj.theta(4.0)))

    def test_one_rank_one_segment_per_window(self):
        s = gpe.GPESchedule((1.0, 0.5, 1.0), (3.0, 0.5, 3.0), (1.0, 3.5, 4.25))
        sig, om0 = gpe.build_gpe_signal(s)
        assert isinstance(sig, signals.RankOneSignal)
        assert len(sig.segments) == s.length
        ends = zip(s.a_seq, s.b_seq, (0.0,) + s.tau_seq, s.tau_seq)
        for seg, (a, b, t0, t1) in zip(sig.segments, ends, strict=True):
            assert (seg.t0, seg.t1, seg.gain) == (t0, t1, (a + b) / (t1 - t0))
        # a repeated pair carries the same angles, turned by one shift
        turn = sig.segments[2].data - sig.segments[0].data
        assert np.ptp(turn) <= 1e-12

    def test_window_rescaling_preserves_gram(self):
        # window shorter than the natural clock: control speeds up, Gram fixed
        s = gpe.GPESchedule((1.0,), (3.0,), (1.0,))
        sig, om0 = gpe.build_gpe_signal(s)
        G = signals.gram(sig, 0.0, 1.0)
        assert np.linalg.eigvalsh(G) == pytest.approx([1.0, 3.0], abs=1e-6)

    def test_chained_windows_contract_independently(self):
        s = gpe.GPESchedule.constant(1.0, 3.0, 1.0, 6)
        asym = gpe.asymptotic_norm(s)
        mu = asym.mu_seq[0]
        for ell in range(6):
            assert asym.norms[ell] == pytest.approx(
                math.exp(-mu * (ell + 1)), rel=1e-5)
        assert asym.max_rel_dev < 0.01

    def test_equal_bound_windows(self):
        # a = b windows are one pendulum segment each, like a < b windows
        s = gpe.GPESchedule((1.0, 1.0, 0.5), (1.0, 1.0, 1.5), (1.0, 2.0, 4.0))
        sig, om0 = gpe.build_gpe_signal(s)
        assert len(sig.segments) == 3
        asym = gpe.asymptotic_norm(s)
        assert asym.taus == s.tau_seq
        assert asym.mu_seq[:2] == pytest.approx([extremal2d.mu(1.0, 1.0)] * 2, rel=1e-6)
        assert asym.max_rel_dev < 0.01

    def test_mixed_schedule_norm_prediction(self):
        s = gpe.GPESchedule((0.8, 0.4, 1.0), (1.0, 1.2, 1.0), (1.0, 2.5, 3.0))
        asym = gpe.asymptotic_norm(s)
        assert asym.max_rel_dev < 0.01
        assert asym.norms[-1] == pytest.approx(
            math.exp(-sum(asym.mu_seq)), rel=1e-4)
        assert asym.limit_estimate == asym.predicted_norms[-1]


def _schedule(pairs, lengths) -> gpe.GPESchedule:
    taus, t = [], 0.0
    for length in lengths:
        t = round(t + length, 9)
        taus.append(t)
    return gpe.GPESchedule(tuple(a for a, _ in pairs), tuple(b for _, b in pairs), tuple(taus))


def _one_flow_norms(s, sig, om0):
    """The reference: one tight spherical flow over [0, tau_L], read at the window ends."""
    traj = flow.integrate_flow(sig, om0, 0.0, s.tau_seq[-1], tol=1e-12)
    return np.exp(traj.log_r[np.searchsorted(traj.ts, s.tau_seq)])


MIXED = [(1.0, 3.0), (0.5, 2.0), (1.0, 1.0), (2.0, 5.0)] * 5


class TestWindowMaps:
    """Each pair's window map is integrated once, as one template flow of one
    column, or of two for a repeated pair, and chained by rotation; the
    norms agree with one tight flow over the whole chain."""

    @pytest.mark.parametrize("s", [
        _schedule(MIXED, [0.5 + 0.075 * k for k in range(20)]),
        gpe.GPESchedule.constant(1.0, 3.0, 1.0, 50),
        _schedule([(0.5 + 0.1 * k, 1.5 + 0.3 * k) for k in range(6)], [1.0, 0.5, 2.0, 0.7, 1.3, 1.1]),
    ], ids=["mixed", "constant", "distinct"])
    def test_matches_one_flow(self, s):
        sig, om0 = gpe.build_gpe_signal(s)
        norms = np.array(gpe.asymptotic_norm(s).norms)
        assert np.max(np.abs(norms / _one_flow_norms(s, sig, om0) - 1.0)) <= 1e-7

    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(pool=st.lists(st.tuples(st.floats(0.3, 2.0), st.just(1.0) | st.floats(1.0, 3.0)),
                         min_size=1, max_size=3),
           picks=st.lists(st.tuples(st.integers(0, 2), st.floats(0.5, 2.0)),
                          min_size=2, max_size=8))
    def test_sweep_matches_one_flow(self, pool, picks):
        # pool pairs (a, b/a) with a = b drawn often; a pick names a pair and a length
        pairs = [(round(a, 3), round(a * ratio, 3)) for a, ratio in pool]
        s = _schedule([pairs[i % len(pairs)] for i, _ in picks], [length for _, length in picks])
        sig, om0 = gpe.build_gpe_signal(s)
        norms = np.array(gpe.asymptotic_norm(s).norms)
        assert np.max(np.abs(norms / _one_flow_norms(s, sig, om0) - 1.0)) <= 1e-7

    def test_each_pair_integrated_once(self, monkeypatch):
        flows = []
        original = gpe.integrate_flow

        def counting(signal, omega0, t0, t1, *args, **kwargs):
            flows.append((round(t1 - t0, 12), np.shape(omega0)[1]))
            return original(signal, omega0, t0, t1, *args, **kwargs)

        monkeypatch.setattr(gpe, "integrate_flow", counting)
        s = _schedule(MIXED[:8] + [(0.7, 1.9)], [1.0] * 9)  # (0.7, 1.9) serves one window
        gpe.asymptotic_norm(s)
        # one flow on [0, a + b] per distinct pair: a two-column block for each
        # repeated pair, one column for the pair used once
        assert sorted(flows) == [(2.0, 2), (2.5, 2), (2.6, 1), (4.0, 2), (7.0, 2)]
