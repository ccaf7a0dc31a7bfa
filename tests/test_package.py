"""Package surface: every exported name resolves, one propagator, and a
light import."""
from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import peflow
from peflow import cli, extremal2d, flow, gain, signals


@pytest.mark.parametrize("module", peflow.__all__)
def test_public_names_resolve(module):
    mod = importlib.import_module(f"peflow.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def _callers(name: str) -> set[str]:
    """`module.function` (`module.Class`, or `module` at module level) of
    every call to `name`, plain or as an attribute, in the package source."""
    found = set()
    for path in Path(peflow.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            label = path.stem
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                label += f".{top.name}"
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if called == name:
                        found.add(label)
    return found


def test_one_propagator(monkeypatch):
    # x' = -S(t) x (+ u) has one right-hand side, and one method cuts spans
    # at segment boundaries for its two walkers and finds the segment of a
    # point read; one spline remains, the CSV trace's worst input through
    # samples of the closed form
    assert _callers("adaptive_rk45") == {"flow.propagate"}
    assert _callers("pieces") == {"flow.propagate", "signals.gram",
                                  "signals.RankOneSignal", "signals.MatrixSignal"}
    assert _callers("CubicSpline") == {"gain.WorstInput"}
    assert _callers("solve_banded") == {"signals.Segment"}
    # the synthesized control is the pendulum over its full period 2T, one
    # segment: its second half is 2 pi - phi exactly, one cubic and one RK45 piece
    a, b = 1.0, 3.0
    sig, om0, _ = extremal2d.build_optimal_control(a, b)
    _, traj = extremal2d.solve_extremal(a, b)
    (seg,) = sig.segments
    assert (seg.t0, seg.t1, sig.period, len(seg.data)) == (0.0, 2 * (a + b), 2 * (a + b), 4095)
    assert seg.data.tobytes() == traj.control.segments[0].data.tobytes()
    assert np.array_equal(seg.data[2048:], 2.0 * np.pi - traj.samples[1][1:])
    calls = {"solve_banded": 0, "adaptive_rk45": 0}
    for module, name in ((signals, "solve_banded"), (flow, "adaptive_rk45")):
        def counting(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    flow.integrate_flow(sig, om0, 0.0, sig.period)
    assert calls == {"solve_banded": 1, "adaptive_rk45": 1}


def test_gpe_walks_its_chain_once():
    # the witness and the norms both read the one chain walk; no package
    # code builds the witness, which the tests integrate as their reference
    assert _callers("_chain") == {"gpe.build_gpe_signal", "gpe.asymptotic_norm"}
    assert _callers("build_gpe_signal") == set()


def test_extremal_shape_is_carried_as_k():
    # the shape reaches solve_multipliers, ExtremalParams and the Jacobi
    # functions as k = cos(phi0/2); phi0 = 2 acos(k) is only reported, and the
    # trajectory holds its params, not copies of them
    tree = ast.parse(Path(extremal2d.__file__).read_text())
    inverse_cosines = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                       for node in ast.walk(fn) if isinstance(node, ast.Call)
                       and getattr(node.func, "attr", getattr(node.func, "id", None))
                       in ("acos", "arccos")}
    assert inverse_cosines == {"phi0"}
    assert _callers("ExtremalTrajectory") == {"extremal2d.integrate_extremal"}


def _trajectory_calls(monkeypatch, name):
    """The shape of t at every call of the ExtremalTrajectory method name from here on."""
    calls = []
    original = getattr(extremal2d.ExtremalTrajectory, name)

    def counting(self, t):
        calls.append(np.shape(t))
        return original(self, t)

    monkeypatch.setattr(extremal2d.ExtremalTrajectory, name, counting)
    return calls


@pytest.fixture
def jacobi_calls(monkeypatch):
    """The shape of t at every ExtremalTrajectory._jacobi call from here on."""
    return _trajectory_calls(monkeypatch, "_jacobi")


@pytest.fixture
def cost_calls(monkeypatch):
    """The shape of t at every ExtremalTrajectory.cost call from here on."""
    return _trajectory_calls(monkeypatch, "cost")


def test_certificate_reads_the_closed_form_once(jacobi_calls):
    # verify_extremal evaluates the Jacobi functions once, at the Gram's
    # nodes plus both ends; J(T) is the quadrature of the cost rate there
    params, traj = extremal2d.solve_extremal(1.0, 3.0)
    report = extremal2d.verify_extremal(traj, params)
    assert report.passed and set(report.residuals) == set(extremal2d.ExtremalReport.PRIMARY)
    assert jacobi_calls == [(2562,)]


def test_gain_and_cost_read_the_certificate_grid(jacobi_calls, capsys):
    # the gain moments and J(t) read the certificate's grid: gain_estimate
    # evaluates the Jacobi functions once, and the extremal CSV adds only its
    # 2001 rows of columns, with no Jacobi pass of J's own
    gain.gain_estimate(1.0, 3.0, 1.0)
    assert jacobi_calls == [(2562,)]
    jacobi_calls.clear()
    assert cli.main(["extremal", "--a", "1", "--b", "3", "--format", "csv"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2002
    assert jacobi_calls == [(2562,), (2001,)]


def test_gain_moments_read_no_cost(cost_calls, jacobi_calls, capsys):
    # the worst input's moments and its CSV direction spline read J at the
    # grid's nodes from the grid's own rates, so gain calls cost(t) nowhere
    assert cli.main(["gain", "--a", "1", "--b", "3"]) == 0
    assert (cost_calls, jacobi_calls) == ([], [(2562,)])
    assert cli.main(["gain", "--a", "1", "--b", "3", "--format", "csv", "--periods", "2"]) == 0
    capsys.readouterr()
    assert cost_calls == []


@pytest.fixture
def solve_calls(monkeypatch):
    """The (a, b) of every extremal2d.solve_params call from here on."""
    calls = []
    original = extremal2d.solve_params

    def counting(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(extremal2d, "solve_params", counting)
    return calls


@pytest.mark.parametrize("argv, solves, reads", [
    # the worst input and the control it drives come from one trajectory: its
    # certificate grid, then its 2048 control samples
    pytest.param(["gain", "--a", "1", "--b", "3", "--format", "csv", "--periods", "2"],
                 [(0.5, 1.5)], [(2562,), (2048,)], id="gain-csv"),
    pytest.param(["decay", "--a", "1", "--b", "3"], [(1.0, 3.0)], [(2048,)], id="decay"),
    pytest.param(["gpe", "--signal", "{schedule}"], [(1.0, 3.0), (0.5, 0.5), (2.0, 5.0)],
                 [(2048,)] * 3, id="gpe"),
])
def test_one_solve_per_pair(jacobi_calls, solve_calls, capsys, tmp_path, argv, solves, reads):
    schedule = tmp_path / "schedule.json"
    schedule.write_text(json.dumps({"a_seq": [1, 0.5, 1, 2, 0.5], "b_seq": [3, 0.5, 3, 5, 0.5],
                                    "tau_seq": [4, 5, 9, 16, 17]}))
    assert cli.main([arg.format(schedule=schedule) for arg in argv]) == 0
    capsys.readouterr()
    assert (solve_calls, jacobi_calls) == (solves, reads)


def test_import_builds_no_large_quadrature_rule():
    # importing the CLI builds only the 5-node rule of the composite quadrature
    code = """
import numpy.polynomial.legendre as legendre
built = []
original = legendre.leggauss
def recording(deg):
    built.append(deg)
    return original(deg)
legendre.leggauss = recording
import peflow.cli
print(max(built, default=0))
"""
    src = str(Path(peflow.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert int(proc.stdout) == 5


def test_benchmark_tracer_contract(capsys):
    # perfbench/tracer.py wraps every SPANNED name, counts adaptive_rk45's
    # first parameter f and reads its result[0] as ts; this keeps what the
    # benchmark reads in the fast suite, not only in the slow smoke tests;
    # decay integrates the flow, where neither extremal nor gain calls adaptive_rk45,
    # and gpe, extremal, gain and oracle keep the schedule, certify, resonance
    # and oracle workloads' per-layer views wired
    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    original = flow.adaptive_rk45

    def traced(*argv):
        t = tracer.Tracer()
        t.install()
        try:
            assert cli.main(list(argv)) == 0
        finally:
            t.uninstall()
        capsys.readouterr()
        return t

    t = traced("decay", "--a", "1", "--b", "3")
    assert t.counts["flow.steps_accepted"] > 0
    assert t.counts["flow.rhs_evals"] > 0
    t = traced("gpe", "--a", "1", "--b", "3", "--periods", "5")
    assert t.calls["gpe.asymptotic_norm"] == 1
    assert t.counts["flow.rhs_evals"] > 0
    t = traced("extremal", "--a", "1", "--b", "3")
    assert t.calls["extremal2d.verify_extremal"] == 1
    assert t.calls["extremal2d.solve_params"] >= 1
    t = traced("gain", "--a", "1", "--b", "3")  # the worst input solves no ODE
    assert t.calls["gain.worst_input"] == 1
    assert t.calls["flow.adaptive_rk45"] == 0
    assert t.counts["flow.rhs_evals"] == 0
    t = traced("oracle", "--a", "1", "--b", "3", "--segments", "8", "--seeds", "1")
    assert t.calls["oracle.brute_force_mu2"] == 1
    assert t.counts["oracle.nfev"] > 0
    assert flow.adaptive_rk45 is original
