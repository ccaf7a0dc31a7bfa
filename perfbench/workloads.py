"""The benchmark's four workloads: seeded inputs and output checks.

Each workload is an endless stream of blocks of `peflow` command lines.
Stream `k` of seed `s` draws from `random.Random(f"{workload}/{s}/{k}")`, so
the same seed always yields the same operations, and the program sees only
the generated arguments.  The run uses stream 0 for the timed loop, stream 1
for the traced pass, stream 2 for the warm-up call and stream 3 for the edge
probe, so no call reuses an input another pass already sent.

A block is one stratified set of draws: continuous parameters come from a
shifted lattice (one draw per stratum of every parameter, paired the same
way in every block).  The lattice shifts follow a low-discrepancy sequence
from a seeded start, so the blocks of any run together cover the domain
evenly, every block carries about the same work, and runs with different
seeds measure the same mix.

The timed mix stays inside the domain on which the program succeeds, so no
timed operation fails.  With `edges=True` a workload yields its full mix
instead: the same draws plus the domain edges, near-equal bounds and typed
decimals on which the program is known to fail (README.md lists them).  The
run sends a few such blocks, untimed, as the edge probe.  No input is
filtered by its outcome.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Iterator

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
PLASTIC = 1.324717957244746  # the real root of p**3 = p + 1


def _rng(workload: str, seed: int, stream: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{stream}")


def _lattice_block(shift: tuple[float, float], n: int, g: int) -> list[tuple[float, float]]:
    """The rank-1 lattice {(i/n, i*g/n mod 1)}, shifted by `shift` mod 1.

    With (n, g) consecutive Fibonacci numbers the n points spread evenly over
    the unit square, one per 1/n-stratum of each axis, and every block pairs
    the strata the same way; only the shift changes between blocks.
    """
    u, v = shift
    return [((i + u) / n, (i * g / n + v) % 1.0) for i in range(n)]


def _shifts(rng: random.Random) -> Iterator[tuple[float, float]]:
    """(u0, v0) + k * (1/p, 1/p**2) mod 1, p the plastic number: any k
    consecutive terms cover the unit square evenly."""
    u0, v0 = rng.random(), rng.random()
    return (((u0 + k / PLASTIC) % 1.0, (v0 + k / PLASTIC ** 2) % 1.0)
            for k in itertools.count())


def _golden(rng: random.Random) -> Iterator[float]:
    """u0 + k * GOLDEN mod 1: any k consecutive terms cover [0, 1) evenly."""
    u0 = rng.random()
    return ((u0 + k * GOLDEN) % 1.0 for k in itertools.count())


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _typed(x: float, digits: int) -> str:
    """x as a user types it: `digits` significant digits."""
    return f"{x:.{digits}g}"


def _pair(a: float, ratio: float, digits: int) -> tuple[str, str]:
    """(a, a * ratio), each typed to `digits` significant digits."""
    a_typed = _typed(a, digits)
    return a_typed, _typed(float(a_typed) * ratio, digits)


def _extremal(a: str, b: str) -> list[str]:
    return ["extremal", "--a", a, "--b", b]


def certify_blocks(seed: int, stream: int, workdir: str,
                   edges: bool = False) -> Iterator[list[list[str]]]:
    """Blocks of `extremal --a A --b B` calls, typed to 4 significant digits.

    13 draws have a log-uniform in [0.1, 10] and b/a log-uniform in [3, 100].
    With `edges`, b/a starts at 1.05 instead and 3 draws come from the domain
    edges: one a = b (a in [0.1, 10]), one with b/a log-uniform in
    [1e2, 1e8], and one with a log-uniform in [1e-8, 1e4].
    """
    rng = _rng("certify", seed, stream)
    shifts, equal, far, scale = _shifts(rng), _golden(rng), _golden(rng), _golden(rng)
    ratio_lo = 1.05 if edges else 3.0
    while True:
        block = [_extremal(*_pair(_log_uniform(u, 0.1, 10.0),
                                  _log_uniform(v, ratio_lo, 100.0), 4))
                 for u, v in _lattice_block(next(shifts), 13, 8)]
        if edges:
            a = _typed(_log_uniform(next(equal), 0.1, 10.0), 4)
            block.append(_extremal(a, a))
            block.append(_extremal(*_pair(_log_uniform(rng.random(), 0.1, 10.0),
                                          _log_uniform(next(far), 1e2, 1e8), 4)))
            block.append(_extremal(*_pair(_log_uniform(next(scale), 1e-8, 1e4),
                                          _log_uniform(rng.random(), 1.05, 100.0), 4)))
        rng.shuffle(block)
        yield block


def schedule_blocks(seed: int, stream: int, workdir: str,
                    edges: bool = False) -> Iterator[list[list[str]]]:
    """One `gpe --signal FILE` call per block, on a 20-window schedule in `workdir`.

    Window lengths are spread over [0.5, 2], one per 1/20-stratum, in shuffled
    order.  The bounds come from a pool of three (a, b) pairs (a log-uniform
    in [0.25, 2], b/a log-uniform in [1.2, 4], on a lattice) and one a = b
    pair, each used by exactly five windows in shuffled order, so bounds
    repeat within a schedule but not across schedules.  The program fails
    none of these, so the full mix (`edges`) is the same.
    """
    rng = _rng("schedule", seed, stream)
    shifts, equal_a = _shifts(rng), _golden(rng)
    for n in itertools.count():
        pool = [_pair(_log_uniform(u, 0.25, 2.0), _log_uniform(v, 1.2, 4.0), 3)
                for u, v in _lattice_block(next(shifts), 3, 2)]
        equal = _typed(_log_uniform(next(equal_a), 0.25, 2.0), 3)
        pool.append((equal, equal))
        windows = pool * 5
        rng.shuffle(windows)
        lengths = [0.5 + 1.5 * (k + rng.random()) / len(windows) for k in range(len(windows))]
        rng.shuffle(lengths)
        taus, t = [], 0.0
        for length in lengths:
            t = round(t + float(_typed(length, 3)), 9)
            taus.append(t)
        doc = {"a_seq": [float(a) for a, _ in windows],
               "b_seq": [float(b) for _, b in windows], "tau_seq": taus, "tag": None}
        path = os.path.join(workdir, f"schedule-{stream}-{n:06d}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        yield [["gpe", "--signal", path]]


def _gain(a: str, b: str) -> list[str]:
    return ["gain", "--a", a, "--b", b, "--T", "1", "--periods", "50"]


def _on_grid(qa: int, ratio: float) -> tuple[str, str]:
    """(qa / 4, qa * ratio / 4) with b on the grid of multiples of 0.25, b/a kept in [1.2, 5]."""
    qb = min(max(round(qa * ratio), math.ceil(1.2 * qa)), math.floor(5 * qa))
    return f"{qa / 4:g}", f"{qb / 4:g}"


def resonance_blocks(seed: int, stream: int, workdir: str,
                     edges: bool = False) -> Iterator[list[list[str]]]:
    """Blocks of 5 `gain --a A --b B --T 1 --periods 50` calls.

    b/a is log-uniform in [1.2, 4], on a lattice.  Pairs lie on the README's
    grid of multiples of 0.25, with a uniform over 0.75, 1, ..., 2.  With
    `edges`, a is uniform in [0.25, 2] and b/a log-uniform in [1.2, 5]
    instead, and every other pair is typed as a two-significant-digit
    decimal, as a user types it; which a-strata get which alternates from
    block to block.
    """
    rng = _rng("resonance", seed, stream)
    shifts = _shifts(rng)
    for k in itertools.count():
        block = []
        for i, (u, v) in enumerate(_lattice_block(next(shifts), 5, 3)):
            ratio = _log_uniform(v, 1.2, 5.0 if edges else 4.0)
            if not edges:
                pair = _on_grid(3 + int(6 * u), ratio)
            elif (i + k) % 2 == 0:
                pair = _on_grid(max(1, round(4 * (0.25 + 1.75 * u))), ratio)
            else:
                pair = _pair(0.25 + 1.75 * u, ratio, 2)
            block.append(_gain(*pair))
        rng.shuffle(block)
        yield block


def _oracle(a: str, b: str) -> list[str]:
    return ["oracle", "--a", a, "--b", b, "--segments", "20", "--seeds", "4"]


def oracle_blocks(seed: int, stream: int, workdir: str,
                  edges: bool = False) -> Iterator[list[list[str]]]:
    """Blocks of 3 `oracle --a A --b B --segments 20 --seeds 4` calls.

    a is log-uniform in [0.5, 2] and b/a log-uniform in [1.5, 6], on a
    lattice.  With `edges`, a fourth draw has a = b, a in [0.5, 2].
    """
    rng = _rng("oracle", seed, stream)
    shifts, equal = _shifts(rng), _golden(rng)
    while True:
        block = [_oracle(*_pair(_log_uniform(u, 0.5, 2.0), _log_uniform(v, 1.5, 6.0), 3))
                 for u, v in _lattice_block(next(shifts), 3, 2)]
        if edges:
            a = _typed(_log_uniform(next(equal), 0.5, 2.0), 3)
            block.append(_oracle(a, a))
        rng.shuffle(block)
        yield block


def _arg(argv: list[str], flag: str) -> float:
    return float(argv[argv.index(flag) + 1])


# Output checks.  `check(argv, doc)` runs on every operation the program
# reported as passed; it tests what the program's own verdict does not.
# `cross(argv, doc)` runs on a sample of them after the timed loop and returns
# (command line, test) pairs: a separate call, whose output the test compares
# with the first.  Checks and tests return a short failure name, or None.

def check_certify(argv, doc) -> str | None:
    return None if 0.0 < doc["mu"] <= _arg(argv, "--a") else "mu_bounds"


def cross_certify(argv, doc):
    """The `mu` subcommand must report the same mu as `extremal`."""
    def same(other):
        return None if math.isclose(other["mu"], doc["mu"], rel_tol=1e-8) else "mu_differs"
    a, b = _arg(argv, "--a"), _arg(argv, "--b")
    return [(["mu", "--a", repr(a), "--b", repr(b)], same)]


def check_schedule(argv, doc) -> str | None:
    with open(argv[argv.index("--signal") + 1]) as fh:
        schedule = json.load(fh)
    norms, mus = doc["norms"], doc["mu_seq"]
    if len(norms) != len(schedule["a_seq"]) or len(mus) != len(norms):
        return "windows"
    if not all(0.0 < n1 < n0 for n0, n1 in zip([1.0] + norms, norms)):
        return "norm_not_decreasing"  # xdot = -S x with S >= 0 never grows |x|
    seen: dict[tuple[float, float], float] = {}
    for a, b, mu in zip(schedule["a_seq"], schedule["b_seq"], mus):
        if not 0.0 < mu <= a * (1.0 + 1e-9):
            return "mu_bounds"
        if not math.isclose(seen.setdefault((a, b), mu), mu, rel_tol=1e-12):
            return "mu_inconsistent"
    return None


def cross_schedule(argv, doc):
    return []


def check_resonance(argv, doc) -> str | None:
    g = doc["gain"]
    return None if 0.0 < g["lower"] and 0.0 < g["simulated"] else "gain_bounds"


def cross_resonance(argv, doc):
    """Both gain bounds, recomputed from separate `mu` calls (T = 1).

    upper = T / (1 - exp(-mu(a, b))) and lower = T / (2 mu(a/2, b/2)).
    """
    g = doc["gain"]

    def bound(key, value):
        def test(other):
            return None if math.isclose(value(other["mu"]), g[key], rel_tol=1e-8) \
                else f"{key}_differs"
        return test
    a, b = _arg(argv, "--a"), _arg(argv, "--b")
    return [(["mu", "--a", repr(a), "--b", repr(b)],
             bound("upper", lambda mu: 1.0 / -math.expm1(-mu))),
            (["mu", "--a", repr(a / 2), "--b", repr(b / 2)],
             bound("lower", lambda mu: 1.0 / (2.0 * mu)))]


def check_oracle(argv, doc) -> str | None:
    return None if 1 <= doc["seeds_used"] <= _arg(argv, "--seeds") else "seeds_used"


def cross_oracle(argv, doc):
    """`extremal` on the same (a, b) must report the oracle's mu_extremal."""
    def same(other):
        return None if math.isclose(other["mu"], doc["mu_extremal"], rel_tol=1e-8) \
            else "mu_differs"
    return [(_extremal(argv[argv.index("--a") + 1], argv[argv.index("--b") + 1]), same)]


@dataclass(frozen=True)
class Workload:
    name: str
    blocks: Callable[..., Iterator[list[list[str]]]]
    check: Callable
    cross: Callable
    # The traced pass always completes this many blocks; its counters and
    # output digest cover exactly these, so they repeat run after run.
    prefix: int
    # Blocks of the full mix, edges included, that the edge probe sends.
    probe: int


WORKLOADS = {w.name: w for w in (
    Workload("certify", certify_blocks, check_certify, cross_certify, 12, 4),
    Workload("schedule", schedule_blocks, check_schedule, cross_schedule, 3, 1),
    Workload("resonance", resonance_blocks, check_resonance, cross_resonance, 1, 2),
    Workload("oracle", oracle_blocks, check_oracle, cross_oracle, 1, 1),
)}
