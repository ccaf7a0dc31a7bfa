"""Outside-in tracing of peflow's layers, installed from the benchmark's files.

`Tracer` replaces each traced function at every module attribute that holds
it: its home module and every peflow module that imported it by name (for
example `adaptive_rk45` in `flow`, `extremal2d` and `gain`), so a call is
seen however it is reached.  Spanned functions record calls and inclusive
busy time, plus the time their directly nested spans cover, which gives self
time.  scipy's `minimize` is spanned where `oracle` imported it, to sum its
`nfev`.  Hot inner calls (signal evaluations, RK45 right-hand sides) are only
counted.  Nothing inside peflow changes; `uninstall` puts every original back.
"""
from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter

SPANNED = {
    "cli": ("main",),
    "extremal2d": ("solve_params", "integrate_extremal", "verify_extremal",
                   "build_optimal_control"),
    "flow": ("adaptive_rk45", "integrate_flow", "fundamental_matrix", "cost_J"),
    "signals": ("gram",),
    "gpe": ("build_gpe_signal", "asymptotic_norm"),
    "gain": ("worst_input", "simulate_gain"),
    "oracle": ("brute_force_mu2",),
}


class Tracer:
    """Counters and spans for one traced pass; install, run, read, uninstall."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.busy: Counter[str] = Counter()
        self.child: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._depth: Counter[str] = Counter()
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._mods = {m: importlib.import_module(f"peflow.{m}") for m in SPANNED}

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        hooks = {"flow.adaptive_rk45": (self._count_rhs, self._count_steps),
                 "oracle.brute_force_mu2": (None, self._count_seeds)}
        for mod, names in SPANNED.items():
            for name in names:
                fn = getattr(self._mods[mod], name)
                key = f"{mod}.{name}"
                self._replace(fn, self._span(key, mod, fn, *hooks.get(key, (None, None))))
        minimize = self._mods["oracle"].minimize
        self._replace(minimize, self._span("oracle.minimize", "oracle", minimize,
                                           after=self._count_nfev))
        signals = self._mods["signals"]
        for cls, name in ((signals.RankOneSignal, "c"), (signals.MatrixSignal, "matrix")):
            self._patch(cls, name, self._counted("signals.evals", getattr(cls, name)))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, new) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def _replace(self, original, new) -> None:
        """Rebind `original` in every traced module that holds it by any name."""
        for mod in self._mods.values():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, name, new)

    # -- wrappers ----------------------------------------------------------

    def _counted(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _span(self, name: str, module: str, fn, before=None, after=None):
        """Wrap fn in a span; `before` may rewrite the arguments, `after` sees
        the result together with the arguments bound to fn's parameters."""
        signature = inspect.signature(fn)

        def span(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            frame = [0.0]
            self._stack.append(frame)
            self._depth[name] += 1
            self.calls[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[f"{module}.errors"] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self._depth[name] -= 1
                if self._depth[name] == 0:
                    self.busy[name] += elapsed
                    self.child[name] += frame[0]
                if self._stack:
                    self._stack[-1][0] += elapsed
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(result, bound.arguments)
            return result
        return span

    # -- hooks -------------------------------------------------------------

    def _count_rhs(self, args, kwargs):
        """Count calls of adaptive_rk45's right-hand side f (its first parameter)."""
        if args:
            return (self._counted("flow.rhs_evals", args[0]), *args[1:]), kwargs
        return args, {**kwargs, "f": self._counted("flow.rhs_evals", kwargs["f"])}

    def _count_steps(self, result, arguments) -> None:
        ts = result[0]
        self.counts["flow.steps_accepted"] += len(ts) - 1

    def _count_nfev(self, result, arguments) -> None:
        self.counts["oracle.nfev"] += int(result.nfev)

    def _count_seeds(self, result, arguments) -> None:
        self.counts["oracle.seeds"] += arguments["n_seeds"]
        self.counts["oracle.seeds_used"] += result.seeds_used
