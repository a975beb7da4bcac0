"""The batched engine against the per-step reference loop.

``reference_run`` is the engine as it was written before batching: one
run, one iteration at a time, the observer advanced by its two update
lines.  It stays here as the oracle for ``run_batch``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iterlearn.learner import (
    DIVERGENCE_CAP,
    LAW_MODES,
    GainSet,
    LearningLaw,
    SimulationConfig,
    run,
    run_batch,
    synth_H_pseudo,
    synth_Hbar,
    trace_to_csv,
)
from iterlearn.observer import ObserverGain
from iterlearn.plant import TransferPlant, UncertaintyModel, uncertainty_sequence


def reference_run(config: SimulationConfig) -> dict:
    """Step one run per iteration; ``err_inf``, ``u_norm`` and ``diverged_at``."""
    plant = config.plant
    P = plant.full()
    p, m = P.shape
    mode = config.law.mode
    gains = config.gains
    N = uncertainty_sequence(config.uncertainty.with_seed(config.seed), config.iterations)
    uses_observer = mode != "p_type"
    if uses_observer:
        if mode in ("eso_full_state", "eso_mixed"):
            P_used = P
        elif mode == "eso_robust":
            P_used = plant.nominal
        else:
            P_used = config.law.surrogate
        L1, L2 = gains.observer.L1, gains.observer.L2
        e_hat, d_hat = np.zeros(p), np.zeros(p)
    U = np.zeros(m) if config.u0 is None else config.u0.copy()
    err_inf, u_norm = [], []
    diverged_at = None
    for k in range(config.iterations):
        E = config.target - (P @ U + N[k])
        if mode == "p_type":
            ubar = -gains.K @ E
        elif mode == "eso_full_state":
            ubar = -gains.K @ e_hat - gains.H @ d_hat
        elif mode == "eso_mixed":
            ubar = -gains.K @ E - gains.H @ d_hat
        else:
            ubar = -gains.K @ (E + gains.Hbar @ d_hat)
        err_inf.append(np.abs(E).max())
        u_norm.append(np.abs(U).max())
        U = U - ubar
        size = np.abs(U).max()
        if uses_observer:
            e_hat, d_hat = (
                e_hat - L1 @ e_hat + d_hat + P_used @ ubar + L1 @ E,
                d_hat - L2 @ e_hat + L2 @ E,
            )
            size = max(size, np.abs(e_hat).max(), np.abs(d_hat).max())
        if not size <= DIVERGENCE_CAP:
            diverged_at = k
            break
    return {"err_inf": np.array(err_inf), "u_norm": np.array(u_norm), "diverged_at": diverged_at}


def random_config(seed: int, mode: str, iterations: int, gain_scale: float, l1: float):
    """A small full-row-rank problem; large gains make some runs diverge."""
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 4))
    m = p + int(rng.integers(0, 3))
    while True:
        nominal = rng.standard_normal((p, m))
        sv = np.linalg.svd(nominal, compute_uv=False)
        if sv[-1] > 0.1 * sv[0]:
            break
    delta = 0.1 * rng.standard_normal((p, m))
    plant = TransferPlant(nominal=nominal, delta=delta)
    surrogate = nominal + 0.05 * rng.standard_normal((p, m))
    law = LearningLaw(mode, surrogate=surrogate if mode == "eso_model_free" else None)
    P_used = {"eso_robust": nominal, "eso_model_free": surrogate}.get(mode, plant.full())
    K = gain_scale * synth_H_pseudo(P_used)
    H = Hbar = None
    if mode in ("eso_full_state", "eso_mixed"):
        H = synth_H_pseudo(P_used)
    elif mode in ("eso_robust", "eso_model_free"):
        Hbar = synth_Hbar(P_used, K)
    observer = None if mode == "p_type" else ObserverGain.diagonal(p, l1, 0.1)
    kind = ["ramp", "cumulative_sine", "seeded_bounded"][seed % 3]
    uncertainty = {
        "ramp": lambda: UncertaintyModel.ramp(rng.standard_normal(p)),
        "cumulative_sine": lambda: UncertaintyModel.cumulative_sine(p),
        "seeded_bounded": lambda: UncertaintyModel.seeded_bounded(p, 0.5, seed=None),
    }[kind]()
    return SimulationConfig(
        plant=plant,
        target=rng.standard_normal(p),
        uncertainty=uncertainty,
        gains=GainSet(K=K, H=H, Hbar=Hbar, observer=observer),
        law=law,
        iterations=iterations,
        u0=rng.standard_normal(m),
        seed=seed,
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    mode=st.sampled_from(LAW_MODES),
    gain_scale=st.floats(0.1, 2.5),
    l1=st.floats(0.2, 3.5),
)
def test_engine_matches_reference_loop(seed, mode, gain_scale, l1):
    config = random_config(seed, mode, 80, gain_scale, l1)
    ref = reference_run(config)
    trace = run(config)
    assert trace.diverged_at == ref["diverged_at"]
    assert trace.diverged == (ref["diverged_at"] is not None)
    assert len(trace) == len(ref["err_inf"])
    sup_err = ref["err_inf"].max()
    assert np.abs(trace.err_inf - ref["err_inf"]).max() <= 1e-9 * sup_err
    u_scale = max(sup_err, ref["u_norm"].max())
    assert np.abs(trace.u_norm - ref["u_norm"]).max() <= 1e-9 * u_scale
    # the trace identities hold exactly on every recorded row
    n = len(trace)
    N = uncertainty_sequence(config.uncertainty.with_seed(config.seed), n)
    P = config.plant.full()
    for k in range(n):
        assert np.array_equal(trace.y[k], P @ trace.u[k] + N[k])
    assert np.array_equal(trace.e, config.target - trace.y)
    assert np.array_equal(trace.u[1:], trace.u[:-1] - trace.ubar[:-1])


@pytest.mark.parametrize("mode", LAW_MODES)
def test_batch_matches_single_runs_bitwise(mode):
    # one seed's plant is reused so every config has the same shape; the
    # large gain of the second run makes it diverge while the others go on
    base = random_config(3, mode, 150, 0.5, 0.9)
    configs = []
    for i, scale in enumerate((0.5, 2.4, 0.3)):
        gains = base.gains
        K = scale * gains.K / 0.5
        P_used = base.law.surrogate if mode == "eso_model_free" else base.plant.nominal
        Hbar = None if gains.Hbar is None else synth_Hbar(P_used, K)
        configs.append(
            SimulationConfig(
                plant=base.plant,
                target=base.target + i,
                uncertainty=UncertaintyModel.seeded_bounded(base.plant.shape[0], 0.3, None),
                gains=GainSet(K=K, H=gains.H, Hbar=Hbar, observer=gains.observer),
                law=base.law,
                iterations=150,
                seed=i,
            )
        )
    batched = run_batch(configs)
    assert batched[1].diverged and not batched[0].diverged and not batched[2].diverged
    for config, trace in zip(configs, batched):
        alone = run(config)
        assert trace_to_csv(trace) == trace_to_csv(alone)
        for name in ("u", "y", "e", "ubar", "e_hat", "d_hat", "d_true"):
            a, b = getattr(trace, name), getattr(alone, name)
            assert (a is None and b is None) or np.array_equal(a, b)


def test_batch_rejects_mixed_laws():
    a = random_config(1, "eso_mixed", 10, 0.5, 0.9)
    b = random_config(1, "p_type", 10, 0.5, 0.9)
    with pytest.raises(ValueError):
        run_batch([a, b])
    with pytest.raises(ValueError):
        run_batch([])


def test_observer_only_divergence_is_flagged():
    # U converges (H = 0 decouples the input from the observer) while the
    # observer loop has spectral radius 2.47; the run is flagged diverged
    # instead of failing as a config error
    config = SimulationConfig(
        plant=TransferPlant(nominal=np.eye(2)),
        target=np.array([1.0, -0.5]),
        uncertainty=UncertaintyModel.cumulative_sine(2),
        gains=GainSet(
            K=0.5 * np.eye(2), H=np.zeros((2, 2)), observer=ObserverGain.diagonal(2, 3.5, 0.1)
        ),
        law=LearningLaw("eso_mixed"),
        iterations=2000,
    )
    trace = run(config)
    assert trace.diverged
    assert len(trace) == trace.diverged_at + 1 < 2000
    assert np.abs(trace.u).max() < 10.0
    for name in ("u", "y", "e", "ubar", "e_hat", "d_hat", "d_true", "obs_err_norm"):
        assert np.all(np.isfinite(getattr(trace, name)))
    assert max(np.abs(trace.e_hat).max(), np.abs(trace.d_hat).max()) <= DIVERGENCE_CAP
