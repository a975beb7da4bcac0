"""Plain error feedback vs observer-compensated learning on a drifting
disturbance.

With a ramp disturbance the plain law stalls at an error level set by the
per-iteration variation, while the observer-compensated law keeps
improving because its residual is driven by the variation *rate*, which
is zero for a ramp.
"""

from pathlib import Path

import numpy as np

from iterlearn import (
    GainSet,
    LearningLaw,
    ObserverGain,
    SimulationConfig,
    TransferPlant,
    UncertaintyModel,
    diff_stats,
    estimate_stability_profile,
    induced_norm,
    run,
    synth_H_pseudo,
)
from iterlearn.svgplot import write_convergence_svg

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

rng = np.random.default_rng(7)
p, m = 3, 4
P = rng.standard_normal((p, m))
plant = TransferPlant(nominal=P)
K = 0.5 * synth_H_pseudo(P)          # loop matrix I - P K = 0.5 I
target = rng.standard_normal(p)
model = UncertaintyModel.ramp([0.5, -0.75, 0.25])

traces = {}
for mode in ("p_type", "eso_mixed"):
    gains = GainSet(
        K=K,
        H=synth_H_pseudo(P) if mode == "eso_mixed" else None,
        observer=ObserverGain.diagonal(p, 0.9, 0.1) if mode == "eso_mixed" else None,
    )
    config = SimulationConfig(
        plant=plant,
        target=target,
        uncertainty=model,
        gains=gains,
        law=LearningLaw(mode=mode),
        iterations=1500,
    )
    traces[mode] = run(config)

stats1 = diff_stats(model, 1, horizon=1500, tail_window=100)
stats2 = diff_stats(model, 2, horizon=1500, tail_window=100)
print(f"disturbance variation sup: {stats1.sup_bound:.3f}, rate sup: {stats2.sup_bound:.1e}")

bound = stats1.sup_bound / (1.0 - induced_norm(np.eye(p) - P @ K, "infinity"))
print(f"predicted stall level for the plain law: {bound:.3f}")

for mode, trace in traces.items():
    profile = estimate_stability_profile(trace, stats1, stats2, tail_window=100)
    print(
        f"{mode:>10}: tail error {profile.tail_err:.3e}  "
        f"superattractive-consistent: {profile.superattractive_consistent}"
    )

write_convergence_svg(
    OUT / "law_comparison.svg",
    [(mode, list(trace.err_inf)) for mode, trace in traces.items()],
    title="ramp disturbance: plain vs observer-compensated learning",
)
print(f"plot written to {OUT / 'law_comparison.svg'}")
