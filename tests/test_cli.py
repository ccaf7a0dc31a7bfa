"""Command-line contract: exit codes, JSON envelopes, CSV headers.

Runs main() in process.  Exit code 0 means every check passed, 1 is a
failed check or pipeline error (reported as JSON), 2 is bad usage.
"""
from __future__ import annotations

import argparse
import json
import math

import numpy as np
import pytest

from peflow import cli, extremal2d, flow, gain, gpe, signals

from controls import axis_hopping_control, write_schedule, write_signal


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


# The flags each subcommand reads, and so the only ones it accepts.
ACCEPTED = {
    "mu": {"a", "b", "out"},
    "extremal": {"a", "b", "tol", "format", "out"},
    "oracle": {"a", "b", "seeds", "segments", "out"},
    "decay": {"signal", "a", "b", "periods", "tol", "out"},
    "gain": {"a", "b", "T", "periods", "tol", "format", "out"},
    "gpe": {"signal", "a", "b", "T", "periods", "format", "out"},
    "verify": {"signal", "a", "b", "T", "tol", "out"},
}
# A valid value of every flag any subcommand ever took, and a valid base call.
FLAG_VALUES = {"a": "1", "b": "3", "T": "1", "n": "2", "tol": "1e-3", "seeds": "2",
               "segments": "8", "periods": "3", "signal": "sig.json", "out": "out.json",
               "format": "csv"}
BASE = {sub: ["--a", "1", "--b", "3"] for sub in ACCEPTED}
BASE["verify"] = ["--signal", "sig.json", "--a", "1", "--b", "3"]


class TestEnvelope:
    def test_config_echo(self, capsys):
        code, doc = run_json(capsys, "mu", "--a", "1", "--b", "3")
        assert code == 0
        # the echo holds exactly the subcommand's flags, defaults resolved
        assert doc["config"] == {"subcommand": "mu", "a": 1.0, "b": 3.0, "out": None}
        _, doc = run_json(capsys, "extremal", "--a", "1", "--b", "3")
        assert doc["config"]["tol"] == 1e-6 and doc["config"]["format"] == "json"
        _, doc = run_json(capsys, "gpe", "--a", "1", "--b", "1", "--periods", "2")
        assert doc["config"]["T"] == 1.0 and doc["config"]["signal"] is None

    def test_byte_identical_reruns(self, capsys):
        _, out1 = run_cli(capsys, "mu", "--a", "0.5", "--b", "2")
        _, out2 = run_cli(capsys, "mu", "--a", "0.5", "--b", "2")
        assert out1 == out2

    def test_out_file_atomic(self, capsys, tmp_path):
        target = tmp_path / "mu.json"
        code, out = run_cli(capsys, "mu", "--a", "1", "--b", "3",
                            "--out", str(target))
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["mu"] == pytest.approx(0.4819817203199967, rel=1e-9)
        assert not (tmp_path / "mu.json.tmp").exists()


class TestExitCodes:
    def test_usage_errors_exit_2(self, capsys):
        assert cli.main(["mu", "--b", "3"]) == 2
        assert cli.main(["mu", "--a", "3", "--b", "1"]) == 2
        assert cli.main(["extremal", "--a", "3", "--b", "1"]) == 2
        capsys.readouterr()

    def test_pipeline_error_exit_1_with_report(self, capsys):
        code, doc = run_json(capsys, "decay", "--signal", "/no/such/file.json")
        assert code == 1
        assert doc["passed"] is False
        assert "error" in doc and doc["error"]["type"]

    @pytest.mark.parametrize("a,b", [("1.51", "1.7667"), ("1", "1e6"), ("1", "1e8"),
                                     ("1e4", "1e5"), ("1e4", "1e12"), ("1", "1e15")])
    def test_former_extremal_failures_pass(self, capsys, a, b):
        # the RK45 trajectory failed here: passed false on Mc, seam or gram,
        # ArithmeticError on eta(T) at (1, 1e8), the step budget at (1e4, 1e12);
        # at (1, 1e15) the shape's round trip through phi0 failed its residual
        def reject(name):
            raise ValueError(f"non-finite number {name}")
        code, out = run_cli(capsys, "extremal", "--a", a, "--b", b)
        doc = json.loads(out, parse_constant=reject)
        assert code == 0 and doc["passed"] is True

    def test_hopeless_extremal_exit_1_fast(self, capsys):
        # b/a = 1e20 puts the shape root k = 1.4e-10 below the solve's
        # bracket (k >= 5e-10, phi0 <= pi - 1e-9): the residual check fails
        # before any trajectory is built
        def reject(name):
            raise ValueError(f"non-finite number {name}")
        code, out = run_cli(capsys, "extremal", "--a", "1", "--b", "1e20")
        doc = json.loads(out, parse_constant=reject)
        assert code == 1 and doc["passed"] is False
        assert doc["error"]["type"] == "ArithmeticError"

    @pytest.mark.parametrize("argv", [
        ["oracle", "--a", "1", "--b", "3", "--segments", "2"],
        ["oracle", "--a", "1", "--b", "3", "--seeds", "0"],
        ["gain", "--a", "1", "--b", "3", "--periods", "0"],
        ["gpe", "--a", "1", "--b", "1", "--periods", "-3"],
        ["mu", "--a", "inf", "--b", "inf"],
    ])
    def test_bad_config_value_exit_2(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("sub,flag", [(sub, flag) for sub in ACCEPTED
                                          for flag in FLAG_VALUES
                                          if flag not in ACCEPTED[sub]])
    def test_unread_flag_exit_2(self, capsys, sub, flag):
        # e.g. mu --format csv, mu --T 1, oracle --tol 1e-3, mu --n 2
        cli._parse([sub, *BASE[sub]])  # the base call alone is valid usage
        code, out = run_cli(capsys, sub, *BASE[sub], f"--{flag}", FLAG_VALUES[flag])
        assert code == 2 and out == ""

    def test_option_strings_match_table(self):
        subparsers = next(action for action in cli._build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        assert set(subparsers.choices) == set(ACCEPTED)
        for sub, flags in ACCEPTED.items():
            options = {opt for action in subparsers.choices[sub]._actions
                       for opt in action.option_strings}
            assert options == {"-h", "--help"} | {f"--{flag}" for flag in flags}
        assert sum(map(len, ACCEPTED.values())) == 39

    @pytest.mark.parametrize("argv", [
        ["mu", "--a", "one", "--b", "3"],
        ["decay", "--signal", "F", "--a", "1", "--b", "1"],
        ["decay", "--signal", "F", "--b", "1"],
        ["gpe", "--signal", "F", "--periods", "3"],
        ["gpe", "--signal", "F", "--T", "2"],
        ["decay"],
        ["gpe", "--a", "1"],
        ["verify", "--a", "1", "--b", "3"],
        ["decay", "--a", "1", "--b", "3", "--tol", "-1"],
        ["decay", "--a", "1", "--b", "3", "--tol", "0"],
        ["extremal", "--a", "1", "--b", "3", "--tol", "-1"],
        ["gain", "--a", "1", "--b", "3", "--format", "csv", "--tol", "nan"],
        ["oracle", "--a", "1", "--b", "3", "--seeds", "2.5"],
    ])
    def test_rejected_usage_exit_2(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 2 and out == ""

    @pytest.mark.parametrize("sub,doc,field", [
        ("decay", {"dim": 2, "period": None}, "segments"),
        ("decay", {"dim": 2, "period": None,
                   "segments": [{"t0": 0.0, "t1": 1.0, "data": [0.0]}]}, "kind"),
        ("decay", {"dim": 2, "period": None, "segments": 5}, "segments"),
        ("decay", [{"t0": 0.0, "t1": 1.0, "kind": "angles", "data": [0.0]}], "segments"),
        ("gpe", {"a_seq": [1.0], "tau_seq": [1.0]}, "b_seq"),
        ("gpe", [[1.0], [1.0], [1.0]], "a_seq"),
    ])
    def test_malformed_document_exit_1(self, capsys, tmp_path, sub, doc, field):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out = run_json(capsys, sub, "--signal", str(path))
        assert code == 1
        assert out["error"]["type"] == "ValueError"
        assert repr(field) in out["error"]["message"]

    def test_unwritable_out_exit_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "mu.json"
        code = cli.main(["mu", "--a", "1", "--b", "3", "--out", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_bad_flag_value_exit_2(self, capsys):
        # argparse's own errors take the same exit-2 path, without SystemExit
        code = cli.main(["mu", "--a", "one", "--b", "3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_parser_reuse_keeps_no_flags(self, capsys):
        # one argparse tree serves every call in a process; a flag given to
        # one call must not leak into the next
        code, doc = run_json(capsys, "extremal", "--a", "1", "--b", "3", "--tol", "0.5")
        assert code == 0 and doc["config"]["tol"] == 0.5
        code, doc = run_json(capsys, "extremal", "--a", "0.5", "--b", "2")
        assert code == 0
        assert doc["config"]["tol"] == 1e-6 and doc["config"]["a"] == 0.5
        assert cli._build_parser() is cli._build_parser()


class TestMu:
    def test_fields(self, capsys):
        code, doc = run_json(capsys, "mu", "--a", "1", "--b", "3")
        assert code == 0
        assert doc["passed"] is True
        assert doc["mu"] <= 1.0 + 1e-6
        assert doc["ratio"] == pytest.approx(doc["mu"] * 10.0)
        assert doc["upper_bound_a"] == 1.0

    def test_equal_bounds(self, capsys):
        # a = b is an interior point of the pendulum family (phi0 = 0.8603);
        # the oracle's mu_hat there is 1.3852 (N = 40, 20 seeds), not 2
        code, doc = run_json(capsys, "mu", "--a", "2", "--b", "2")
        assert code == 0
        assert doc["mu"] == pytest.approx(1.3837532212, rel=1e-9)

    def test_every_path_reports_same_mu(self, capsys):
        for a, b in ((1.0, 3.0), (1.0, 1.0)):
            _, doc = run_json(capsys, "mu", "--a", repr(a), "--b", repr(b))
            mu = extremal2d.mu(a, b)
            assert doc["mu"] == mu
            assert gain.gain_estimate(a, b, 1.0, k_periods=8).mu == mu
            sched = gpe.GPESchedule.constant(a, b, 1.0, 2)
            assert gpe.asymptotic_norm(sched).mu_seq == (mu, mu)
            ab = ("--a", repr(a), "--b", repr(b))
            assert run_json(capsys, "decay", *ab, "--periods", "2")[1]["mu"] == mu
            doc = run_json(capsys, "gain", *ab, "--periods", "8")[1]["gain"]
            assert (doc["mu"], doc["mu_half"]) == (mu, extremal2d.mu(a / 2, b / 2))
            _, doc = run_json(capsys, "oracle", *ab, "--seeds", "2", "--segments", "8")
            assert doc["mu_extremal"] == mu
        # mu is continuous at a = b: no threshold separates b = a + 1e-13 from a = b
        b = repr(1.0 + 1e-13)
        _, doc = run_json(capsys, "mu", "--a", "1", "--b", b)
        assert doc["mu"] == pytest.approx(extremal2d.mu(1.0, 1.0), rel=1e-10)
        code, doc = run_json(capsys, "extremal", "--a", "1", "--b", "1")
        assert code == 0 and doc["mu"] == extremal2d.mu(1.0, 1.0)


class TestExtremal:
    def test_json_report(self, capsys):
        code, doc = run_json(capsys, "extremal", "--a", "1", "--b", "3")
        assert code == 0
        assert doc["passed"] is True
        assert set(doc["params"]) == {"a", "b", "T", "alpha", "beta", "d", "nu", "phi0"}
        assert all(v < 1e-6 for k, v in doc["residuals"].items()
                   if k in extremal2d.ExtremalReport.PRIMARY)

    def test_csv_trajectory(self, capsys):
        code, out = run_cli(capsys, "extremal", "--a", "1", "--b", "3",
                            "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,theta,eta,phi,cost"
        assert len(lines) == 2002
        last = [float(v) for v in lines[-1].split(",")]
        assert last[0] == pytest.approx(4.0)
        assert last[4] == pytest.approx(0.4819817203199967, rel=1e-6)
        # the one columns read gives the same bits as the per-column accessors
        _, traj = extremal2d.solve_extremal(1.0, 3.0)
        ts = np.linspace(0.0, 4.0, 2001)
        cols = [ts, traj.theta(ts), traj.eta(ts), traj.columns(ts)[..., 2], traj.cost(ts)]
        assert lines[1:] == [",".join(repr(float(v)) for v in row) for row in zip(*cols)]


class TestEqualBounds:
    """a = b through the one pendulum path.  Certified mu(a, a) against the
    oracle's mu_hat (N = 40, 20 seeds): 0.492124 vs 0.492145 at a = 0.5,
    0.933552 vs 0.933705 at a = 1, 1.383753 vs 1.385177 at a = 2."""

    @pytest.mark.parametrize("a", [0.01, 0.1, 1.0, 2.0, 5.0, 20.0])
    def test_certified_and_continuous(self, capsys, a):
        code, doc = run_json(capsys, "extremal", "--a", repr(a), "--b", repr(a))
        assert code == 0 and doc["passed"] is True
        assert doc["params"]["phi0"] == pytest.approx(0.8602743467, rel=1e-9)
        mu = extremal2d.mu(a, a)
        assert doc["mu"] == mu
        assert mu < a
        assert mu == pytest.approx(extremal2d.mu(a, a * (1.0 + 1e-9)), rel=1e-8)

    def test_oracle_agrees(self, capsys):
        code, doc = run_json(capsys, "oracle", "--a", "1", "--b", "1",
                             "--segments", "20", "--seeds", "4")
        assert code == 0 and doc["passed"] is True
        assert doc["mu_extremal"] <= doc["mu_hat"]


class TestSmallScale:
    """The synthesized control at a ~ 1e-3, where |omega_2(0)| = |sin(theta0/2)|
    is below 1e-6, so the mirror cannot be read off omega's signs."""

    @pytest.mark.parametrize("a, b", [(0.001, 0.001), (0.001, 0.0015),
                                      (0.00316, 0.00319), (0.0001278, 0.001786)])
    def test_certified_and_decays_at_rate(self, capsys, a, b):
        code, doc = run_json(capsys, "extremal", "--a", repr(a), "--b", repr(b))
        assert code == 0 and doc["passed"] is True
        sig, _, mu = extremal2d.build_optimal_control(a, b)
        assert flow.decay_rate(sig).rate == pytest.approx(2.0 * mu / sig.period, rel=1e-6)

    def test_gain_report(self, capsys):
        # an honest short-horizon failure, not a synthesis error
        code, doc = run_json(capsys, "gain", "--a", "0.002", "--b", "0.003")
        assert "error" not in doc
        assert code == 1 and doc["gain"]["horizon_needed"] > 50


class TestDecayGain:
    def test_decay_synthesized(self, capsys):
        code, doc = run_json(capsys, "decay", "--a", "1", "--b", "3")
        assert code == 0
        assert doc["decay"]["method"] == "monodromy"
        assert doc["decay"]["rate"] == pytest.approx(doc["expected_rate"], rel=1e-6)

    def test_decay_off_its_expected_rate_fails(self, capsys):
        # at (1e-8, 1e-8) the tol-1e-9 flow's error is a fixed share of the
        # per-period contraction 2 mu ~ 1e-8: the rate lands about 10% off, and
        # the verdict says so while the report is still written
        code, doc = run_json(capsys, "decay", "--a", "1e-8", "--b", "1e-8")
        assert code == 1 and doc["passed"] is False and "error" not in doc
        assert doc["decay"]["rate"] >= 0.0
        assert abs(doc["decay"]["rate"] / doc["expected_rate"] - 1.0) > 1e-6

    def test_decay_signal_file(self, capsys, tmp_path):
        path = tmp_path / "axis.json"
        write_signal(axis_hopping_control(1.0, 1.0, 2), str(path))
        code, doc = run_json(capsys, "decay", "--signal", str(path))
        assert code == 0
        assert doc["decay"]["rate"] == pytest.approx(1.0, rel=1e-7)

    def test_decay_rejects_period_off_span(self, capsys, tmp_path):
        path = tmp_path / "off.json"
        doc = signals.signal_to_dict(axis_hopping_control(1.0, 1.0, 2))
        doc["period"] = 1.5
        path.write_text(json.dumps(doc))
        code, out = run_json(capsys, "decay", "--signal", str(path))
        assert code == 1
        assert out["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("field, text", [
        ("data", "[null]"), ("t1", "1e999"), ("gain", "0"),
        # a JSON integer too large for a float
        pytest.param("t1", str(10 ** 400), id="t1-huge-int"),
        pytest.param("gain", str(10 ** 400), id="gain-huge-int"),
        pytest.param("data", f"[{10 ** 400}]", id="data-huge-int")])
    def test_decay_names_bad_segment_field(self, capsys, tmp_path, field, text):
        doc = signals.signal_to_dict(axis_hopping_control(1.0, 1.0, 2))
        doc["segments"][1][field] = "BAD"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc).replace('"BAD"', text))
        code, out = run_json(capsys, "decay", "--signal", str(path))
        assert code == 1
        assert out["error"]["type"] == "ValueError"
        assert out["error"]["message"].startswith(f"segment 1 field '{field}'")

    @pytest.mark.parametrize("text", [
        pytest.param(str(10 ** 400), id="period-huge-int"),
        pytest.param("1e999", id="period-inf"), pytest.param("NaN", id="period-nan"),
        # true would read as 1.0, the span of the segments
        pytest.param("true", id="period-true")])
    def test_decay_names_bad_period(self, capsys, tmp_path, text):
        doc = signals.signal_to_dict(axis_hopping_control(1.0, 1.0, 2))
        doc["period"] = "BAD"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc).replace('"BAD"', text))
        code, out = run_json(capsys, "decay", "--signal", str(path))
        assert code == 1
        assert out["error"]["type"] == "ValueError"
        assert "period" in out["error"]["message"]

    def test_gain_report(self, capsys):
        code, doc = run_json(capsys, "gain", "--a", "1", "--b", "3", "--T", "1",
                             "--periods", "50")
        assert code == 0
        g = doc["gain"]
        assert g["lower"] <= g["simulated"] * 1.02
        assert g["simulated"] <= g["upper"]

    def test_gain_short_horizon_not_certified(self, capsys):
        # at k = 10 the ratio is still >2% below its limit: honest failure
        code, doc = run_json(capsys, "gain", "--a", "1", "--b", "3", "--T", "1",
                             "--periods", "10")
        assert code == 1
        assert doc["passed"] is False

    def test_gain_csv(self, capsys):
        code, out = run_cli(capsys, "gain", "--a", "1", "--b", "3", "--T", "1",
                            "--periods", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,x_norm,u_norm"
        assert len(lines) > 10


class TestGpe:
    def test_constant_divergent_csv(self, capsys):
        code, out = run_cli(capsys, "gpe", "--a", "1", "--b", "1",
                            "--periods", "6", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "ell,tau,norm,predicted_norm,partial_sum"
        assert len(lines) == 7
        last = lines[-1].split(",")
        assert float(last[2]) == pytest.approx(np.exp(-6.0 * extremal2d.mu(1.0, 1.0)),
                                               rel=1e-5)

    def test_schedule_file_json(self, capsys, tmp_path):
        s = gpe.GPESchedule((1.0, 0.5), (3.0, 1.5), (4.0, 6.0), tag="converges")
        path = tmp_path / "sched.json"
        write_schedule(s, str(path))
        code, doc = run_json(capsys, "gpe", "--signal", str(path))
        assert code == 0
        assert doc["verdict"] == "converges"
        assert len(doc["norms"]) == 2
        assert doc["max_rel_dev"] < 0.01

    def test_norms_off_the_prediction_fail(self, capsys, monkeypatch):
        # template maps that contract 5% too much in log r: the norms leave
        # the mu-sum prediction by more than 1%, reported rather than raised
        original = gpe.integrate_flow

        def off(*args, **kwargs):
            traj = original(*args, **kwargs)
            return flow.Trajectory(traj.ts, traj.omegas, 1.05 * traj.log_r)

        monkeypatch.setattr(gpe, "integrate_flow", off)
        code, doc = run_json(capsys, "gpe", "--a", "1", "--b", "3", "--periods", "4")
        assert code == 1 and doc["passed"] is False
        assert doc["max_rel_dev"] > 0.01 and len(doc["norms"]) == 4


class TestVerify:
    def test_axis_example(self, capsys, tmp_path):
        path = tmp_path / "axis.json"
        write_signal(axis_hopping_control(1.0, 1.0, 2), str(path))
        code, doc = run_json(capsys, "verify", "--signal", str(path),
                             "--a", "1", "--b", "1", "--T", "1")
        assert code == 0
        assert doc["passed"] is True
        assert doc["checks"]["verify_int"]["satisfies"] is True

    def test_extremal_signal_gets_certificate(self, capsys, tmp_path):
        sig, _, _ = extremal2d.build_optimal_control(1.0, 3.0)
        path = tmp_path / "opt.json"
        write_signal(sig, str(path))
        code, doc = run_json(capsys, "verify", "--signal", str(path),
                             "--a", "1", "--b", "3", "--T", "4")
        assert code == 0
        cert = doc["checks"]["verify_extremal"]
        assert cert["passed"] is True
        assert cert["control_alignment_gap"] < 1e-6

    def test_admissible_sample_passes_without_certificate(self, capsys, tmp_path):
        # an aperiodic admissible control is PE but is not the extremal; it
        # must pass the window checks and never face the alignment gate
        sig = signals.RankOneSignal((signals.Segment(0.0, 3.0, np.array([0.0])),
                                     signals.Segment(3.0, 4.0, np.array([math.pi]))))
        path = tmp_path / "sample.json"
        write_signal(sig, str(path))
        code, doc = run_json(capsys, "verify", "--signal", str(path),
                             "--a", "1", "--b", "3", "--T", "4")
        assert code == 0
        assert doc["passed"] is True
        assert "verify_extremal" not in doc["checks"]

    def test_wrong_bounds_fail(self, capsys, tmp_path):
        path = tmp_path / "axis.json"
        write_signal(axis_hopping_control(1.0, 1.0, 2), str(path))
        code, doc = run_json(capsys, "verify", "--signal", str(path),
                             "--a", "2", "--b", "2", "--T", "1")
        assert code == 1
        assert doc["passed"] is False
