"""Per-layer tracing from outside the program.

The tracer replaces each listed public function of ramphop with a wrapper, in
every module that binds it: a name imported with ``from .x import y`` is a
separate binding in each importing module, and calls through any of them
must be seen.  Each wrapper keeps a call count and its self time, the time
spent inside it minus the time spent in wrapped functions it called.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# The package's modules, used as the layers, and the public functions traced
# in each.  cli traces only ``main``, so its self time is argument parsing
# and the glue between the layers.
LAYERS: dict[str, tuple[str, ...]] = {
    "model": ("build_hamiltonian", "build_flux_twisted", "classify_regime"),
    "gauge": ("hermitize", "gauge_vector", "balanced_form", "ungauge"),
    "eigen": ("eig_sym_tridiag", "eig_general", "det_shifted"),
    "solve": ("solve_spectrum", "block_spectra"),
    "analysis": (
        "classify", "level_spacings", "fit_envelope", "localization",
        "global_envelope", "winding_trace",
    ),
    "io": (
        "write_spectrum_csv", "write_blocks_csv", "write_states_csv",
        "write_states_summary_csv", "write_envelope_csv", "write_sweep_csv",
        "write_winding_csv", "write_json",
    ),
    "cli": ("main",),
}

# Counters other than calls and self time, with their units per op.
COUNTERS = {
    "eigen.pairs": "pairs/op",  # eigenvectors returned by eigen's solvers
    "eigen.unconverged": "pairs/op",  # pairs flagged in Spectrum.unconverged
    "analysis.winding_trace.refined": "calls/op",  # traces at twice the steps
    "io.bytes": "B/op",  # bytes of files an op wrote
    "cli.exit_nonzero": "ops/op",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer, names in LAYERS.items():
        for name in names:
            if layer != "cli":
                units[f"{layer}.{name}.calls"] = "calls/op"
            units[f"{layer}.{name}.self_s"] = "s/op"
    units.update(COUNTERS)
    units["trace.ops_per_s"] = "1/s"
    units["trace.overhead_s"] = "s/op"
    return units


def wrapper_cost(samples: int = 20_000) -> float:
    """Seconds a wrapped call adds to a direct one, measured on a no-op."""

    def noop():
        return None

    wrapped = Tracer()._wrap("noop", noop)
    clock = time.perf_counter
    start = clock()
    for _ in range(samples):
        noop()
    direct = clock() - start
    start = clock()
    for _ in range(samples):
        wrapped()
    return max(0.0, (clock() - start - direct) / samples)


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters = {name: 0 for name in COUNTERS}
        self._stack: list[list[float]] = []
        # Spectrum objects seen in the current op, so a spectrum passed up
        # from eigen through solve is counted once.
        self._spectra: dict[int, object] = {}

    def end_op(self) -> None:
        self._spectra.clear()

    def install(self) -> None:
        """Wrap every binding of every listed function in ramphop's modules."""
        wrappers = {}
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"ramphop.{layer}")
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "ramphop" and not mod_name.startswith("ramphop."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _wrap(self, key: str, fn):
        self.calls[key] = 0
        self.self_s[key] = 0.0
        stack = self._stack
        observe = self._observer(key, fn)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.calls[key] += 1
                self.self_s[key] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if observe is not None:
                observe(result, args, kwargs)
            return result

        return wrapper

    def _observer(self, key: str, fn):
        if key in ("eigen.eig_sym_tridiag", "eigen.eig_general", "solve.solve_spectrum"):
            from_eigen = key.startswith("eigen.")

            def observe(spec, args, kwargs):
                if from_eigen and spec.eigenvectors is not None:
                    self.counters["eigen.pairs"] += spec.eigenvectors.shape[1]
                if id(spec) not in self._spectra:
                    self._spectra[id(spec)] = spec
                    self.counters["eigen.unconverged"] += int(spec.unconverged.sum())

            return observe
        if key == "analysis.winding_trace":
            signature = inspect.signature(fn)

            def observe(trace, args, kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if trace.theta_steps != bound.arguments["theta_steps"]:
                    self.counters["analysis.winding_trace.refined"] += 1

            return observe
        return None

    def per_op(self, ops: int, bytes_written: int, exit_nonzero: int, ops_per_s: float) -> dict:
        """Metric values per attempted op, keyed by metric name."""
        self.counters["io.bytes"] = bytes_written
        self.counters["cli.exit_nonzero"] = exit_nonzero
        values = {}
        for key, count in self.calls.items():
            if key != "cli.main":
                values[f"{key}.calls"] = count / ops
            values[f"{key}.self_s"] = self.self_s[key] / ops
        for name, count in self.counters.items():
            values[name] = count / ops
        values["trace.ops_per_s"] = ops_per_s
        values["trace.overhead_s"] = sum(self.calls.values()) * wrapper_cost() / ops
        return values
