"""The model-free learning benchmark, end to end.

The true plant is a 20-step lifting of a third-order system whose every
matrix element carries up to 30% error; the controller never sees it.
Learning runs through a banded surrogate with gain 0.5 * inv(surrogate),
compensation gain 2 I, and observer gains 0.9 I / 0.1 I, against a
slowly-drifting cumulative-sine disturbance.  The observer-based law
tracks roughly 20x more accurately than plain error feedback.
"""

from pathlib import Path

from iterlearn import run
from iterlearn.learner import write_trace_csv
from iterlearn.presets import reference_config, reference_seeds, write_reference_experiment
from iterlearn.svgplot import write_convergence_svg

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

seeds = reference_seeds(3)
print(f"benchmark seeds (amplification-sane draws): {seeds}")

curves = []
for seed in seeds:
    mf = run(reference_config(seed, "eso_model_free", iterations=500))
    pt = run(reference_config(seed, "p_type", iterations=500))
    tail_mf = mf.err_inf[-50:].max()
    tail_pt = pt.err_inf[-50:].max()
    print(
        f"seed {seed}: initial error {mf.err_inf[0]:.3f}  "
        f"plain tail {tail_pt:.3e}  model-free tail {tail_mf:.3e}  "
        f"ratio {tail_pt / tail_mf:.1f}x"
    )
    if seed == seeds[0]:
        write_trace_csv(OUT / f"benchmark_model_free_seed{seed}.csv", mf)
        write_trace_csv(OUT / f"benchmark_p_type_seed{seed}.csv", pt)
        curves = [
            (f"model-free law, seed {seed}", list(mf.err_inf)),
            (f"plain error feedback, seed {seed}", list(pt.err_inf)),
        ]

write_convergence_svg(OUT / "benchmark.svg", curves, title="model-free learning benchmark")
print(f"traces and plot written to {OUT}/")
config = write_reference_experiment(OUT)
print("the same experiment is available through the command line:")
print(f"  iterlearn simulate --config {config} --out out/")
