"""Closed-loop benchmark of the peflow command line.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run it from the root of a peflow checkout; it imports the package from
`src/`.  One client in one thread sends each operation, an in-process call
of `peflow.cli.main(argv)` with stdout captured, only after the previous one
returned.  Operations come in blocks (see workloads.py); the loop runs
whole blocks for about `--seconds` seconds.  Every output is parsed strictly
and checked.  Latencies are also reported in reference units: each is
divided by the mean of the timings of a fixed kernel (reference.py) taken
just before and just after it, at most REF_EVERY seconds apart unless one
operation lasts longer.

With `--trace 0` the last line of stdout is a JSON object carrying the
end-to-end metrics of BENCHMARK.json.  With `--trace 1` the run spends half
of `--seconds` untraced and half traced (tracer.py) on a separate input
stream, and reports the per-layer metrics instead, including the client's
own statistics and the tracing overhead.  A traced run then sends, untimed,
a few blocks of the workload's full mix, domain edges included, as the edge
probe: its failures are reported as `probe.fail_frac` and in the report, not
in `failed`, since the timed mix is chosen so that no operation fails.  The
line before the result is a JSON report with the environment stamp, failure
counts and output digests.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

from tracer import SPANNED, Tracer
from workloads import WORKLOADS

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "BENCHMARK.json")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
REF_EVERY = 0.1  # s between timings of the reference kernel, at most
CROSS_SAMPLE = 16  # passed operations per pass whose output a second call cross-checks
WORKDIR = ".perfbench-work"
# Failures that mean the program printed a wrong answer, not that it refused
# or failed to produce one.
WRONG = ("json", "verdict", "check:", "cross:")


def _strict_json(text: str) -> dict:
    def reject(name):
        raise ValueError(f"non-finite number {name}")
    return json.loads(text, parse_constant=reject)


def call(cli, argv: list[str], check) -> tuple[str, dict | None, float, str | None]:
    """One operation: (stdout, parsed output, latency in s, failure name or None)."""
    out = io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a flag
            code = exc.code
        except Exception as exc:  # counted as a failure, the loop goes on
            error = exc
        latency = time.perf_counter() - start
    text = out.getvalue()
    if error is not None:
        return text, None, latency, f"exception:{type(error).__name__}"
    if not text and code != 0:
        return text, None, latency, f"exit:{code}"  # refused, e.g. a usage error
    try:
        doc = _strict_json(text)
    except ValueError:
        return text, None, latency, "json"
    if isinstance(doc.get("error"), dict):
        return text, doc, latency, f"error:{doc['error'].get('type')}"
    if (doc.get("passed") is True) != (code == 0):
        return text, doc, latency, "verdict"  # exit status contradicts `passed`
    if code != 0:
        return text, doc, latency, "passed_false"
    try:
        failed_check = check(argv, doc)
    except (KeyError, TypeError, ValueError):
        failed_check = "malformed"
    return text, doc, latency, None if failed_check is None else f"check:{failed_check}"


class Pass:
    """Latencies, failures and output digests of one closed-loop pass."""

    def __init__(self) -> None:
        # (index of the reference reading before it, latency, passed)
        self.ops: list[tuple[int, float, bool]] = []
        self.refs: list[float] = []
        self.blocks = 0
        self.failures: Counter[str] = Counter()
        self.digest = hashlib.sha256()
        self.prefix_digest: str | None = None
        self.sample: list[tuple[list[str], dict]] = []

    def stats(self) -> dict:
        """Client statistics; latency statistics read 0 when nothing passed.

        An operation's cost in reference units is its latency over the mean
        of the reference readings just before and just after it.
        """
        refs = self.refs
        total_cost = 0.0
        costs, ok = [], []
        for r, latency, passed in self.ops:
            cost = latency / (0.5 * (refs[r] + refs[r + 1]))
            total_cost += cost
            if passed:
                costs.append(cost)
                ok.append(latency)
        ok.sort()
        n = len(ok)
        attempted = len(self.ops)
        p50 = statistics.median(ok) if n else 0.0
        # The highest percentile with at least ten samples beyond it is the
        # 11th largest; with fewer than 11 samples there is none, and the
        # median stands in for it.
        tail, percentile = (ok[n - 11], 100.0 * (n - 10) / n) if n >= 11 else (p50, 50.0)
        return {
            "attempted": attempted,
            "fail_frac": self.failures.total() / attempted,
            "ops_per_kref": 1000.0 * n / total_cost,
            "latency_p50_ref": statistics.median(costs) if n else 0.0,
            "latency_mean_ref": statistics.fmean(costs) if n else 0.0,
            "ref_s": statistics.median(self.refs),
            "blocks": self.blocks,
            "ops_per_s": n / sum(op[1] for op in self.ops),
            "samples": n,
            "latency_p50_s": p50,
            "latency_tail_s": tail,
            "tail_percentile": percentile,
        }


def closed_loop(cli, workload, blocks, seconds: float, host_time, prefix: int = 0,
                tracer: Tracer | None = None) -> tuple[Pass, dict | None]:
    """Run blocks of operations back to back for `seconds`, and at least `prefix` blocks.

    With a tracer, also returns its per-layer metrics after exactly `prefix`
    blocks, so the counters cover the same calls on every run of a seed.
    """
    p = Pass()
    layers = None
    windows = 0
    ref_at = -math.inf
    start = time.perf_counter()
    while True:
        # Start another block only if, at the mean block time so far, it
        # would end less than half a block past the deadline.
        now = time.perf_counter()
        if p.blocks >= max(prefix, 1) and now + (now - start) / (2 * p.blocks) > start + seconds:
            break
        for argv in next(blocks):
            if time.perf_counter() - ref_at > REF_EVERY:
                p.refs.append(host_time())
                ref_at = time.perf_counter()
            text, doc, latency, failure = call(cli, argv, workload.check)
            p.ops.append((len(p.refs) - 1, latency, failure is None))
            p.digest.update(text.encode())
            if failure is None:
                windows += len(doc.get("norms", ()))  # gpe schedule windows
                if len(p.sample) < CROSS_SAMPLE:
                    p.sample.append((argv, doc))
            else:
                p.failures[failure] += 1
        p.blocks += 1
        if p.blocks == prefix:
            p.prefix_digest = p.digest.hexdigest()
            if tracer is not None:
                layers = layer_metrics(tracer, windows)
    p.refs.append(host_time())  # the reading after the last operation
    return p, layers


def cross_check(cli, workload, p: Pass) -> None:
    """Compare sampled outputs with separate calls; a mismatch fails the operation."""
    for argv, doc in p.sample:
        for other_argv, test in workload.cross(argv, doc):
            _, other, _, failure = call(cli, other_argv, lambda argv, doc: None)
            mismatch = failure or test(other)
            if mismatch is not None:
                p.failures[f"cross:{mismatch}"] += 1
                break


def layer_metrics(t: Tracer, windows: int) -> dict:
    """Per-layer metrics from the tracer's state; idle layers read 0."""
    c = t.counts
    steps = c["flow.steps_accepted"]
    minimize_s = t.busy["oracle.minimize"]
    m = {
        "cli.main.calls": t.calls["cli.main"],
        "cli.main.self_s": t.busy["cli.main"] - t.child["cli.main"],
        "extremal2d.solve_params.calls": t.calls["extremal2d.solve_params"],
        "extremal2d.errors": c["extremal2d.errors"],
        "flow.adaptive_rk45.calls": t.calls["flow.adaptive_rk45"],
        "flow.rhs_evals": c["flow.rhs_evals"],
        "flow.steps_accepted": steps,
        "flow.rhs_evals_per_step": c["flow.rhs_evals"] / steps if steps else 0.0,
        "flow.errors": c["flow.errors"],
        "signals.evals": c["signals.evals"],
        "signals.gram.calls": t.calls["signals.gram"],
        "gpe.mu_solves_per_window":
            t.calls["extremal2d.solve_params"] / windows if windows else 0.0,
        "oracle.nfev": c["oracle.nfev"],
        "oracle.nfev_per_s": c["oracle.nfev"] / minimize_s if minimize_s else 0.0,
        "oracle.seeds_feasible_frac":
            c["oracle.seeds_used"] / c["oracle.seeds"] if c["oracle.seeds"] else 0.0,
    }
    m.update({f"{mod}.{name}.busy_s": t.busy[f"{mod}.{name}"]
              for mod, names in SPANNED.items() if mod != "cli" for name in names})
    return m


def setup_times(env: dict) -> list[float]:
    """Wall times of fresh interpreters importing peflow.cli, after one warm-up."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import peflow.cli"], env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        if i:
            times.append(time.perf_counter() - start)
    return times


def import_times(env: dict) -> dict:
    """Median cumulative import times from `python -X importtime`, in s."""
    keys = {"peflow.cli": "import.peflow_s", "scipy.interpolate": "import.scipy_interpolate_s",
            "scipy.optimize": "import.scipy_optimize_s"}
    samples: dict[str, list[float]] = {k: [] for k in keys.values()}
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import peflow.cli"],
                              env=env, check=True, capture_output=True, text=True,
                              timeout=60)
        seen = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in keys:
                seen.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
        if i:
            for module, key in keys.items():
                samples[key].append(seen[module])
    return {k: statistics.median(v) for k, v in samples.items()}


def measure(cli, workload, seed: int, seconds: float, trace: bool,
            host_time) -> tuple[Pass, Pass | None, dict | None, Pass | None]:
    """Warm up, run the timed loop (and the traced pass and edge probe), then the cross-checks."""
    workdir = os.path.join(WORKDIR, f"{workload.name}-{seed}")
    os.makedirs(workdir, exist_ok=True)
    try:
        call(cli, next(workload.blocks(seed, 2, workdir))[0], workload.check)  # warm-up
        share = seconds / 2 if trace else seconds
        untraced, _ = closed_loop(cli, workload, workload.blocks(seed, 0, workdir), share,
                                  host_time)
        traced = layers = probe = None
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced, layers = closed_loop(cli, workload, workload.blocks(seed, 1, workdir),
                                             share, host_time, workload.prefix, tracer)
            finally:
                tracer.uninstall()
            probe, _ = closed_loop(cli, workload,
                                   workload.blocks(seed, 3, workdir, edges=True), 0.0,
                                   host_time, workload.probe)
        for p in (untraced, traced, probe):
            if p is not None:
                cross_check(cli, workload, p)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORKDIR)
    return untraced, traced, layers, probe


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "peflow", "cli.py")):
        sys.stderr.write(f"perfbench: no src/peflow/cli.py under {root}; "
                         "run from the root of a peflow checkout\n")
        return 2
    with open(SPEC) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    stamp = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "thread_vars_inherited": {v: os.environ.get(v) for v in THREAD_VARS},
    }
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([child_env["PYTHONPATH"]] if child_env.get("PYTHONPATH") else []))
    setups = imports = None
    if args.trace:
        imports = import_times(child_env)
    else:
        setups = setup_times(child_env)

    # Only this measuring process runs single-threaded BLAS/OpenMP; the
    # set-up children above saw the environment as given.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, src)
    import numpy
    import scipy
    import peflow
    from peflow import cli
    from reference import host_time
    if os.path.dirname(os.path.abspath(peflow.__file__)) != os.path.join(src, "peflow"):
        sys.stderr.write(f"perfbench: imported peflow from {peflow.__file__}, not {src}\n")
        return 2
    stamp.update(numpy=numpy.__version__, scipy=scipy.__version__,
                 thread_vars_worker={v: os.environ[v] for v in THREAD_VARS})

    untraced, traced, layers, probe = measure(cli, workload, args.seed, args.seconds,
                                              bool(args.trace), host_time)
    passes = [untraced] if traced is None else [untraced, traced]
    failures = sum((p.failures for p in passes), Counter())
    attempted = sum(len(p.ops) for p in passes)
    failed = sum(failures.values())
    client = untraced.stats()
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": stamp, "failures": dict(failures),
        "untraced": {**client,
                     "outputs_sha256": untraced.digest.hexdigest()},
    }
    if traced is None:
        report["setup_s_samples"] = setups
        metrics = {
            "setup_s": statistics.median(setups),
            "latency_p50_ref": client["latency_p50_ref"],
            "latency_mean_ref": client["latency_mean_ref"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        traced_stats = traced.stats()
        report["traced"] = {**traced_stats,
                            "prefix_blocks": workload.prefix,
                            "prefix_outputs_sha256": traced.prefix_digest,
                            "outputs_sha256": traced.digest.hexdigest()}
        report["probe"] = {"blocks": probe.blocks, "attempted": len(probe.ops),
                           "failures": dict(probe.failures),
                           "outputs_sha256": probe.digest.hexdigest()}
        metrics = {f"client.{k}": client[k] for k in
                   ("ops_per_s", "ops_per_kref", "latency_p50_s", "latency_tail_s",
                    "tail_percentile", "samples", "ref_s")}
        metrics["probe.fail_frac"] = probe.failures.total() / len(probe.ops)
        metrics.update(imports)
        metrics.update(layers)
        for k in ("ops_per_kref", "latency_p50_ref", "latency_mean_ref"):
            metrics[f"overhead.{k}"] = traced_stats[k] - client[k]
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": not any(f.startswith(WRONG) for f in
                           failures + (probe.failures if probe else Counter())),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
