"""The batched engine against the per-step reference loop.

``reference_run`` is the engine as it was written before batching: one
run, one iteration at a time, the observer advanced by its two update
lines.  It stays here as the oracle for ``run_batch``.  ``parent_run_batch``
is an earlier batched engine that copied every row into its records; it is
kept as the memory baseline.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from iterlearn import presets
from iterlearn.learner import (
    DIVERGENCE_CAP,
    LAW_MODES,
    GainSet,
    IterationTrace,
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
from iterlearn.stability import loop_matrix


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
    assert trace.diverged and trace.diverged_component == "e_hat"
    assert len(trace) == trace.diverged_at + 1 < 2000
    assert np.abs(trace.u).max() < 10.0
    for name in ("u", "y", "e", "ubar", "e_hat", "d_hat", "d_true", "obs_err_norm"):
        assert np.all(np.isfinite(getattr(trace, name)))
    assert max(np.abs(trace.e_hat).max(), np.abs(trace.d_hat).max()) <= DIVERGENCE_CAP


def test_diverged_component_names_the_input():
    config = random_config(3, "p_type", 150, 2.4, 0.9)
    trace = run(config)
    assert trace.diverged and trace.diverged_component == "u"
    assert np.abs(trace.u[-1] - trace.ubar[-1]).max() > DIVERGENCE_CAP
    assert run(random_config(3, "p_type", 150, 0.5, 0.9)).diverged_component is None


@pytest.mark.parametrize(
    "seed, mode, gain_scale, l1",
    [
        (2854, "eso_robust", 2.4, 2.4),
        (2936, "eso_robust", 2.5, 2.5),
        (30, "eso_robust", 2.5, 2.5),
        (191, "eso_model_free", 2.5, 2.5),
        (54, "eso_model_free", 3.5, 3.5),
        (297, "eso_robust", 3.5, 3.5),
    ],
)
def test_unexcited_unstable_mode_follows_the_reference_loop(seed, mode, gain_scale, l1):
    # with gain_scale == l1 the observer's e_hat row cancels exactly
    # (L1 = P_used K), leaving its mode -(l1 - 1), unstable here, excited
    # only by rounding; an engine that rounds otherwise than the reference
    # loop drifts from it by up to 6e-3 of the largest error within 80
    # iterations, and may flag divergence at another k
    config = random_config(seed, mode, 80, gain_scale, l1)
    ref, trace = reference_run(config), run(config)
    assert trace.diverged_at == ref["diverged_at"]
    assert np.array_equal(trace.err_inf, ref["err_inf"])
    assert np.array_equal(trace.u_norm, ref["u_norm"])


def square_problem(seed: int, mode: str) -> SimulationConfig:
    """A random square plant with model error and full observer gains."""
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 5))
    nominal = rng.standard_normal((p, p)) + 2 * np.eye(p)
    plant = TransferPlant(nominal=nominal, delta=0.2 * rng.standard_normal((p, p)))
    surrogate = nominal + 0.1 * rng.standard_normal((p, p))
    P_used = surrogate if mode == "eso_model_free" else nominal
    K = rng.uniform(0.2, 1.2) * np.linalg.inv(P_used)
    observer = ObserverGain(
        L1=rng.uniform(0.3, 1.5) * np.eye(p) + 0.1 * rng.standard_normal((p, p)),
        L2=rng.uniform(0.05, 0.3) * np.eye(p) + 0.05 * rng.standard_normal((p, p)),
    )
    return SimulationConfig(
        plant=plant,
        target=np.zeros(p),
        uncertainty=UncertaintyModel.zero(p),
        gains=GainSet(
            K=K,
            Hbar=None if mode == "p_type" else synth_Hbar(P_used, K),
            observer=None if mode == "p_type" else observer,
        ),
        law=LearningLaw(mode, surrogate=surrogate if mode == "eso_model_free" else None),
        iterations=1,
    )


def law_state_map(config: SimulationConfig) -> np.ndarray:
    """The homogeneous step ``X_k -> X_{k+1}`` of ``reference_run``'s loop.

    With ``X_k = [U_k; e_hat_k; d_hat_k]`` (``[U_k]`` for ``p_type``),
    every law is ``ubar = -Ke E - Kh e_hat - Hd d_hat`` on ``E = -P U``,
    ``U_{k+1} = U_k - ubar``, and the observer knows the map ``P_used``.
    """
    gains, mode = config.gains, config.law.mode
    P, K = config.plant.full(), gains.K
    p, m = P.shape
    if mode == "p_type":
        return np.eye(m) - K @ P
    zero = np.zeros_like(K)
    Ke, Kh, Hd = {
        "eso_full_state": (zero, K, gains.H),
        "eso_mixed": (K, zero, gains.H),
    }.get(mode, (K, zero, K @ gains.Hbar))
    P_used = {"eso_robust": config.plant.nominal, "eso_model_free": config.law.surrogate}
    P_used = P_used.get(mode, P)
    L1, L2, I, Z = gains.observer.L1, gains.observer.L2, np.eye(p), np.zeros((m, p))
    A = np.hstack([Ke @ P, -Kh, -Hd])  # ubar_k = A X_k
    return np.vstack(
        [
            np.hstack([np.eye(m), Z, Z]) - A,
            np.hstack([-L1 @ P, I - L1, I]) + P_used @ A,
            np.hstack([-L2 @ P, -L2, I]),
        ]
    )


@pytest.mark.parametrize(
    "mode, condition_id",
    [("p_type", "eq04"), ("eso_robust", "eq62"), ("eso_model_free", "eq102")],
)
def test_engine_map_has_the_catalog_spectrum(mode, condition_id):
    # eso_mixed and eso_full_state are left out: eq41 is the loop of an
    # observer on the nominal map, while the engine gives theirs the true
    # map, so on a plant with model error the two spectra differ
    for seed in range(40):
        config = square_problem(seed, mode)
        ours = np.linalg.eigvals(law_state_map(config))
        catalog = np.linalg.eigvals(
            loop_matrix(condition_id, config.plant, config.gains, config.law.surrogate)
        )
        assert ours.shape == catalog.shape
        cost = np.abs(ours[:, None] - catalog[None, :])
        rows, cols = linear_sum_assignment(cost)
        scale = max(1.0, np.abs(catalog).max())
        assert cost[rows, cols].max() <= 1e-10 * scale


def traced_peak(f, *args):
    """``f``'s result and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        return f(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_engine_memory_is_within_the_parent_engine():
    # the wide benchmark's size: 8 model-free runs at T = 100, 500 iterations
    configs = [presets.reference_config(seed, "eso_model_free", 500, 100) for seed in range(1, 9)]
    ref, ref_peak = traced_peak(parent_run_batch, configs)
    traces, peak = traced_peak(run_batch, configs)
    assert peak <= ref_peak
    for a, b in zip(traces, ref):
        assert a.diverged_at == b.diverged_at
        sup_err = b.err_inf.max()
        assert np.abs(a.err_inf - b.err_inf).max() <= 1e-9 * sup_err
        assert np.abs(a.obs_err_norm - b.obs_err_norm).max() <= 1e-9 * max(sup_err, 1.0)


# a diverged run is stepped on until the batch ends and may overflow; its
# rows past the divergence are dropped
@np.errstate(over="ignore", invalid="ignore")
def parent_run_batch(configs) -> list[IterationTrace]:
    """The engine before each law was one affine map: every law re-derived
    from its parts at each iteration."""
    configs = list(configs)
    if len({(c.law.mode, c.plant.shape, c.iterations) for c in configs}) != 1:
        raise ValueError("run_batch needs configs sharing the law, plant shape and iterations")
    mode, iterations = configs[0].law.mode, configs[0].iterations

    def stack(get) -> np.ndarray:
        return np.stack([get(c) for c in configs])

    P = stack(lambda c: c.plant.full())
    negK = -stack(lambda c: c.gains.K)
    # vectors are stacked as (runs, length, 1) columns
    target = stack(lambda c: c.target)[..., None]
    N = stack(lambda c: uncertainty_sequence(c.uncertainty.with_seed(c.seed), iterations + 1))
    N = N[..., None]
    U = stack(lambda c: np.zeros(c.plant.shape[1]) if c.u0 is None else c.u0)[..., None]

    uses_observer = mode != "p_type"
    if uses_observer:
        L1 = stack(lambda c: c.gains.observer.L1)
        L2 = stack(lambda c: c.gains.observer.L2)
        if mode in ("eso_full_state", "eso_mixed"):
            H = stack(lambda c: c.gains.H)
            P_used, delta_for_truth = P, None
        else:
            Hbar = stack(lambda c: c.gains.Hbar)
            if mode == "eso_robust":
                P_used = stack(lambda c: c.plant.nominal)
                delta_for_truth = stack(lambda c: c.plant.delta)
            else:  # eso_model_free
                P_used = stack(lambda c: c.law.surrogate)
                delta_for_truth = P - P_used
        e_hat = np.zeros_like(target)
        d_hat = np.zeros_like(target)

    # recorded rows: one (runs, iterations, width, 1) array per trace field
    fields = {"u": U, "y": target, "e": target, "ubar": U}
    if uses_observer:
        fields.update(e_hat=target, d_hat=target)
    rec = {name: np.zeros((len(configs), iterations) + v.shape[1:]) for name, v in fields.items()}
    diverged_at: list[int | None] = [None] * len(configs)

    for k in range(iterations):
        Y = P @ U + N[:, k]
        E = target - Y
        if mode == "p_type":
            ubar = negK @ E
        elif mode == "eso_full_state":
            ubar = negK @ e_hat - H @ d_hat
        elif mode == "eso_mixed":
            ubar = negK @ E - H @ d_hat
        else:  # eso_robust, eso_model_free
            ubar = negK @ (E + Hbar @ d_hat)
        rec["u"][:, k] = U
        rec["y"][:, k] = Y
        rec["e"][:, k] = E
        rec["ubar"][:, k] = ubar
        U = U - ubar
        size = np.abs(U).max(axis=(1, 2))
        if uses_observer:
            rec["e_hat"][:, k] = e_hat
            rec["d_hat"][:, k] = d_hat
            e_hat, d_hat = (
                e_hat - L1 @ e_hat + d_hat + P_used @ ubar + L1 @ E,
                d_hat - L2 @ e_hat + L2 @ E,
            )
            size = np.maximum(size, np.abs(e_hat).max(axis=(1, 2)))
            size = np.maximum(size, np.abs(d_hat).max(axis=(1, 2)))

        for b in np.flatnonzero(~(size <= DIVERGENCE_CAP)):  # NaN compares false
            if diverged_at[b] is None:
                diverged_at[b] = k
        if None not in diverged_at:
            break

    if uses_observer:
        # ground-truth disturbance aggregate seen by this law's observer
        rec["d_true"] = N[:, :-1] - N[:, 1:]
        if delta_for_truth is not None:
            rec["d_true"] += delta_for_truth[:, None] @ rec["ubar"]
    traces = []
    for b, at in enumerate(diverged_at):
        n = iterations if at is None else at + 1
        t = {name: a[b, :n, :, 0] for name, a in rec.items()}
        if uses_observer:
            obs_err = np.maximum(
                np.abs(t["e"] - t["e_hat"]).max(axis=1),
                np.abs(t["d_true"] - t["d_hat"]).max(axis=1),
            )
        else:
            t.update(e_hat=None, d_hat=None, d_true=None)
            obs_err = np.full(n, np.nan)
        traces.append(
            IterationTrace(
                mode=mode,
                **t,
                err_inf=np.abs(t["e"]).max(axis=1),
                err_2=np.linalg.norm(t["e"], axis=1),
                u_norm=np.abs(t["u"]).max(axis=1),
                ubar_norm=np.abs(t["ubar"]).max(axis=1),
                obs_err_norm=obs_err,
                diverged=at is not None,
                diverged_at=at,
            )
        )
    return traces
