"""Per-layer spans for the traced benchmark run.

Wrappers replace public functions of iterlearn where their caller looks
the name up (a module attribute or a class attribute) and record, for
each layer, the summed busy time and the call count.  Busy time is
summed over threads: under the simulate thread pool the spans of
``learner.run`` overlap, so their sum can exceed the wall time.  Nothing
here is installed in the untraced runs.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self.busy_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: quantities measured at a boundary besides time and calls
        self.totals: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._installed: list[tuple[object, str, object]] = []

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.totals[name] += value

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            self.maxima[name] = max(self.maxima[name], value)

    def wrap(self, owner, attr: str, layer: str, observe=None) -> None:
        """Time every call of ``owner.attr`` under ``layer``.

        ``observe(tracer, args, result)`` records extra quantities after a
        call returns.  A name the program no longer has is skipped, so the
        layer reads zero calls instead of breaking the run.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                with self._lock:
                    self.busy_s[layer] += dt
                    self.calls[layer] += 1
            if observe is not None:
                observe(self, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()


def install(tracer: Tracer) -> None:
    """Wrap the layers of ``simulate`` and ``check``."""
    from iterlearn import cli, learner, plant, stability

    def rows(tr, args, trace):
        tr.add("learner.run.rows", len(trace))

    def csv_bytes(tr, args, result):
        tr.add("learner.csv_bytes", os.path.getsize(args[0]))

    def svg_points(tr, args, result):
        tr.add("svgplot.points", sum(len(values) for _, values in args[1]))

    def matrix_dim(tr, args, result):
        tr.peak("matanalysis.spectral_radius.max_dim", len(args[0]))

    def found(tr, args, cert):
        tr.add("stability.lmi_search.found", cert is not None)

    tracer.wrap(learner, "run", "learner.run", rows)
    tracer.wrap(learner, "generate_N", "plant.generate_N")
    tracer.wrap(learner, "eso_step", "observer.eso_step")
    tracer.wrap(learner, "write_trace_csv", "learner.write_trace_csv", csv_bytes)
    tracer.wrap(cli, "write_convergence_svg", "svgplot.write_convergence_svg", svg_points)
    tracer.wrap(cli.Experiment, "simulation_config", "cli.simulation_config")
    tracer.wrap(cli.Experiment, "plant_for", "cli.plant_for")
    tracer.wrap(cli.Experiment, "condition_reports", "cli.condition_reports")
    tracer.wrap(plant, "lift_ilc", "plant.lift_ilc")
    tracer.wrap(stability, "check_condition", "stability.check_condition")
    tracer.wrap(stability, "spectral_radius", "matanalysis.spectral_radius", matrix_dim)
    tracer.wrap(stability, "lmi_search", "stability.lmi_search", found)
    tracer.wrap(stability, "lmi_verify", "stability.lmi_verify")
    tracer.wrap(stability, "is_negative_definite", "matanalysis.is_negative_definite")
    tracer.wrap(stability, "save_certificate", "stability.save_certificate")


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-round layer figures from the spans of ``rounds`` traced rounds."""
    busy, calls, totals = tracer.busy_s, tracer.calls, tracer.totals

    def per_round(value):
        return value / rounds

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for layer in (
        "learner.run",
        "plant.generate_N",
        "observer.eso_step",
        "cli.simulation_config",
        "plant.lift_ilc",
        "cli.condition_reports",
        "stability.check_condition",
        "matanalysis.spectral_radius",
        "stability.lmi_verify",
        "matanalysis.is_negative_definite",
    ):
        out[f"{layer}.s"] = per_round(busy[layer])
        out[f"{layer}.calls"] = per_round(calls[layer])
    for layer in (
        "learner.write_trace_csv",
        "svgplot.write_convergence_svg",
        "stability.lmi_search",
        "stability.save_certificate",
    ):
        out[f"{layer}.s"] = per_round(busy[layer])
    out["cli.plant_for.calls"] = per_round(calls["cli.plant_for"])
    out["learner.run.us_per_iter"] = 1e6 * ratio(busy["learner.run"], totals["learner.run.rows"])
    out["learner.csv_mb"] = per_round(totals["learner.csv_bytes"]) / 1e6
    out["svgplot.points"] = per_round(totals["svgplot.points"])
    out["matanalysis.spectral_radius.max_dim"] = tracer.maxima[
        "matanalysis.spectral_radius.max_dim"
    ]
    out["stability.lmi_search.found_per_verify"] = ratio(
        totals["stability.lmi_search.found"], calls["stability.lmi_verify"]
    )
    return out
