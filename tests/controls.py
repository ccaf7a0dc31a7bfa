"""Test-only controls."""
from __future__ import annotations

import json

import numpy as np

from peflow.signals import MatrixSignal, Segment, signal_to_dict


def axis_hopping_control(a: float, T: float, n: int) -> MatrixSignal:
    """Piecewise-constant control (a n / T) e_j e_j^T on the j-th of n subintervals.

    Its Gram over [0, T] is a*I_n, and the trajectory started at e_1 stays
    at e_1 with cost exactly a.
    """
    if a <= 0 or T <= 0 or n < 1:
        raise ValueError("need a > 0, T > 0, n >= 1")
    segs = []
    for j in range(n):
        mat = np.zeros((1, n, n))
        mat[0, j, j] = a * n / T
        segs.append(Segment(j * T / n, (j + 1) * T / n, mat))
    return MatrixSignal(tuple(segs), dim=n, period=T)


def matrix_at(signal, t: float) -> np.ndarray:
    """S(t) as an (n, n) array: MatrixSignal.matrix, or for a rank-one signal
    g cc^T from RankOneSignal.c(t) and the gain of the segment read at t."""
    if isinstance(signal, MatrixSignal):
        return signal.matrix(t)
    _, _, seg, _ = signal.pieces(t, t)[0]
    c = signal.c(t)
    return seg.gain * np.outer(c, c)


def write_signal(signal, path: str) -> None:
    """Write a signal as the JSON document signals.load_signal reads."""
    with open(path, "w") as fh:
        fh.write(json.dumps(signal_to_dict(signal), indent=2, sort_keys=True) + "\n")


def write_schedule(schedule, path: str) -> None:
    """Write a GPE schedule as the JSON document gpe.load_schedule reads."""
    doc = {"a_seq": list(schedule.a_seq), "b_seq": list(schedule.b_seq),
           "tau_seq": list(schedule.tau_seq), "tag": schedule.tag}
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
