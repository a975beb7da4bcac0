"""The batched engine against the per-step reference loop.

``reference_run`` is the engine as it was written before batching: one
run, one iteration at a time, the observer advanced by its two update
lines, except that ``eso_mixed``'s observer now runs on the nominal map,
the loop ``eq41`` states.  It stays here as the oracle for ``run_batch``.
``parent_run_batch`` is an earlier batched engine that copied every row
into its records; it is kept as the memory baseline.  ``law_map`` is
checked against the engine's recorded rows and the catalog's spectra.
"""

import tracemalloc
from dataclasses import replace
from functools import partial

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
    law_map,
    run,
    run_batch,
    synth_H_pseudo,
    synth_Hbar,
    trace_to_csv,
    _CHUNK,
    _observer_maps,
    _product,
)
from iterlearn.observer import ObserverGain
from iterlearn.plant import TransferPlant, UncertaintyModel, uncertainty_sequence
from iterlearn.stability import check_condition, loop_matrix


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
        # eso_full_state's observer knows the true map, eso_mixed's and
        # eso_robust's the nominal one (the loops of eq20, eq41 and eq62)
        if mode == "eso_full_state":
            P_used = P
        elif mode in ("eso_mixed", "eso_robust"):
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


def random_config(
    seed: int, mode: str, iterations: int, gain_scale: float, l1: float, observer_kind="diagonal"
):
    """A small full-row-rank problem; large gains make some runs diverge.

    The observer gains are ``l1 I`` and ``0.1 I``, plus, for
    ``observer_kind`` ``"lower"`` or ``"full"``, a small random strictly
    lower or full matrix each, drawn from a stream of their own.
    """
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
    if mode == "p_type":
        observer = None
    else:
        observer = ObserverGain.diagonal(p, l1, 0.1)
        if observer_kind != "diagonal":
            extra = 0.2 * np.random.default_rng([seed, 1]).standard_normal((2, p, p))
            if observer_kind == "lower":
                extra = np.tril(extra, -1)
            observer = ObserverGain(L1=observer.L1 + extra[0], L2=observer.L2 + 0.5 * extra[1])
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
    observer_kind=st.sampled_from(("diagonal", "lower", "full")),
)
def test_engine_matches_reference_loop(seed, mode, gain_scale, l1, observer_kind):
    # diagonal gains take run_batch's scaling path, lower and full ones
    # its matmul path; each must follow the reference loop
    config = random_config(seed, mode, 80, gain_scale, l1, observer_kind)
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


def law_batches(mode: str) -> list[tuple[list[SimulationConfig], list | None, bool]]:
    """Batches of three runs of ``mode`` on one seed's plant, as ``(batch,
    Ks, shared)``.  In the first kind (``Ks`` None) the large gain of the
    second run makes it diverge while the others go on, and a second batch
    of that kind has one run's L1 off the diagonal.  In the others every
    run's K is one of ``Ks``, applied as one matrix if ``shared``."""
    # one seed's plant is reused so every config has the same shape
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
    batches = [(configs, None, False)]
    if mode != "p_type":
        # one run's L1 off the diagonal sends the batch's whole L1 stack
        # down the matmul path, while the other runs alone take the scaling
        L1 = base.gains.observer.L1.copy()
        L1[-1, 0] = 0.01
        gains = configs[2].gains
        observer = ObserverGain(L1=L1, L2=gains.observer.L2)
        dense = GainSet(K=gains.K, H=gains.H, Hbar=gains.Hbar, observer=observer)
        batches.append((configs[:2] + [replace(configs[2], gains=dense)], None, False))

    # every run's K: one shared object, equal copies, copies one of which
    # differs in a single entry or only by the sign of a zero; the first
    # two are applied as one matrix, the others as a stack
    K = base.gains.K.copy()
    K[0, -1] = 0.0
    one_entry, signed_zero = K.copy(), K.copy()
    one_entry[-1, 0] += 1e-3
    signed_zero[0, -1] = -0.0
    for Ks, shared in (
        ([K, K, K], True),
        ([K, K.copy(), K.copy()], True),
        ([K, K.copy(), one_entry], False),
        ([K, K.copy(), signed_zero], False),
    ):
        batch = [replace(c, gains=replace(configs[0].gains, K=Kb)) for c, Kb in zip(configs, Ks)]
        batches.append((batch, Ks, shared))
    return batches


@pytest.mark.parametrize("mode", LAW_MODES)
def test_batch_matches_single_runs_bitwise(mode):
    for batch, Ks, shared in law_batches(mode):
        if Ks is None:
            batched = run_batch(batch)
            assert batched[1].diverged and not batched[0].diverged and not batched[2].diverged
            assert_batch_is_its_runs(batch, batched)
        else:
            assert _product(Ks, negate=True).args[0].ndim == (2 if shared else 3)
            assert_batch_is_its_runs(batch, run_batch(batch))


STATISTICS = ("err_inf", "err_2", "u_norm", "ubar_norm", "obs_err_norm")
STATES = ("u", "y", "e", "ubar", "e_hat", "d_hat", "d_true")


@pytest.mark.parametrize("mode", LAW_MODES)
def test_batch_without_states_has_the_same_statistics(mode):
    batches = [batch for batch, _, _ in law_batches(mode)]
    # ten times the diverging run's gain: every run diverges in the first chunk
    first = batches[0]
    gains = replace(first[1].gains, K=10 * first[1].gains.K)
    fast = [replace(c, gains=gains) for c in first]
    assert all(t.diverged_at < _CHUNK for t in run_batch(fast))
    batches.append(fast)
    for batch in batches:
        for full, streamed in zip(run_batch(batch), run_batch(batch, states=False)):
            for name in STATISTICS:
                a, b = getattr(full, name), getattr(streamed, name)
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
            assert streamed.diverged_at == full.diverged_at
            assert streamed.diverged_component == full.diverged_component
            assert all(getattr(streamed, name) is None for name in STATES)


def assert_batch_is_its_runs(batch, batched):
    """Each trace of a batch has the bits of its run stepped alone."""
    for config, trace in zip(batch, batched):
        alone = run(config)
        assert trace_to_csv(trace) == trace_to_csv(alone)
        for name in ("u", "y", "e", "ubar", "e_hat", "d_hat", "d_true"):
            a, b = getattr(trace, name), getattr(alone, name)
            assert (a is None and b is None) or (a.shape == b.shape and a.tobytes() == b.tobytes())


def test_batch_rejects_mixed_laws():
    a = random_config(1, "eso_mixed", 10, 0.5, 0.9)
    b = random_config(1, "p_type", 10, 0.5, 0.9)
    with pytest.raises(ValueError):
        run_batch([a, b])
    with pytest.raises(ValueError):
        run_batch([])


def product_stack(rng, runs: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal ``(runs, n, n)`` matrices and ``(runs, n, 1)`` columns whose
    entries include zeros, negatives and subnormals."""

    def entries(shape):
        normal = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
        subnormal = rng.standard_normal(shape) * 1e-310
        pick = rng.random(shape)
        return np.where(pick < 0.2, 0.0, np.where(pick < 0.4, subnormal, normal))

    A = np.zeros((runs, n, n))
    A[:, np.arange(n), np.arange(n)] = entries((runs, n))
    return A, entries((runs, n, 1))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), runs=st.integers(1, 4), n=st.integers(1, 9))
def test_diagonal_product_is_the_matmul(seed, runs, n):
    # A row with one nonzero entry is one rounded product plus exact zeros,
    # so the scaling equals the matvec under ==.  Two exceptions fall outside
    # these finite stacks: a zero may carry the other sign (-0.0 == 0.0),
    # and 0 * inf gives 0 where the matvec gives NaN; an inf arises only
    # past the divergence cap, in rows that run_batch drops.
    rng = np.random.default_rng(seed)
    A, x = product_stack(rng, runs, n)
    product, out = _product(A), np.empty((runs, n, 1))
    assert product.func is np.multiply
    assert product(x, out=out) is out
    assert np.array_equal(out, np.matmul(A, x))
    # one nonzero entry off the diagonal of one run sends the stack to matmul
    if n > 1:
        A[rng.integers(runs), 0, n - 1] = 1e20
        x[:, n - 1] = 1.0
        product = _product(A)
        assert product.func is np.matmul
        assert np.array_equal(product(x, out=out), np.matmul(A, x))
    # a stack that is not square is a matmul too
    H = rng.standard_normal((runs, n + 1, n))
    product, out = _product(H), np.empty((runs, n + 1, 1))
    assert product.func is np.matmul
    assert np.array_equal(product(x, out=out), np.matmul(H, x))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    runs=st.integers(1, 4),
    r=st.integers(1, 40),
    c=st.integers(2, 40),
)
def test_shared_product_is_the_stacked_matmul(seed, runs, r, c):
    # runs whose matrices have equal bits are applied as one matrix, which
    # matmul broadcasts to the same per-run matvec as a stack of copies
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((r, c))
    x = rng.standard_normal((runs, c, 1))
    out = np.empty((runs, r, 1))
    for mats in ([A] * runs, [A.copy() for _ in range(runs)]):
        for negate in (False, True):
            product = _product(mats, negate=negate)
            assert product.func is np.matmul and product.args[0].shape == (r, c)
            stack = -np.stack(mats) if negate else np.stack(mats)
            assert product(x, out=out).tobytes() == np.matmul(stack, x).tobytes()
    # a zero of the other sign, or a NaN of another payload, in one run's
    # matrix makes the runs a stack
    nan = np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0]
    for mine, other in ((0.0, -0.0), (np.nan, nan)):
        A[0, -1] = mine
        mats = [A] * (runs - 1) + [A.copy()]
        mats[-1][0, -1] = other
        product = _product(mats)
        assert product.args[0].shape == ((runs, r, c) if runs > 1 else (r, c))
        assert product(x, out=out).tobytes() == np.matmul(np.stack(mats), x).tobytes()


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


def wide_problem(seed: int, mode: str) -> SimulationConfig:
    """A random plant, wide or square, with model error and full observer
    gains; zero target and uncertainty, so its run is the homogeneous loop."""
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 4))
    m = p + int(rng.integers(0, 3))
    nominal = rng.standard_normal((p, m))
    nominal[:, :p] += 2 * np.eye(p)
    plant = TransferPlant(nominal=nominal, delta=0.3 * rng.standard_normal((p, m)))
    surrogate = nominal + 0.1 * rng.standard_normal((p, m))
    P_used = surrogate if mode == "eso_model_free" else nominal
    K = rng.uniform(0.2, 1.2) * synth_H_pseudo(P_used)
    observer = ObserverGain(
        L1=rng.uniform(0.3, 1.5) * np.eye(p) + 0.1 * rng.standard_normal((p, p)),
        L2=rng.uniform(0.05, 0.3) * np.eye(p) + 0.05 * rng.standard_normal((p, p)),
    )
    compensated = mode in ("eso_full_state", "eso_mixed")
    aggregated = mode in ("eso_robust", "eso_model_free")
    return SimulationConfig(
        plant=plant,
        target=np.zeros(p),
        uncertainty=UncertaintyModel.zero(p),
        gains=GainSet(
            K=K,
            H=synth_H_pseudo(nominal) if compensated else None,
            Hbar=synth_Hbar(P_used, K) if aggregated else None,
            observer=None if mode == "p_type" else observer,
        ),
        law=LearningLaw(mode, surrogate=surrogate if mode == "eso_model_free" else None),
        iterations=25,
        u0=rng.standard_normal(m),
    )


def engine_map(config: SimulationConfig) -> np.ndarray:
    """``law_map`` of a config's law, its observer on the map the engine
    gives it."""
    P_used, _ = _observer_maps(config)
    return law_map(config.law.mode, config.plant.full(), config.gains, P_used)


#: the catalog loop (or loops) whose spectrum each law's step has
LAW_CONDITIONS = {
    "p_type": ("eq04",),
    "eso_full_state": ("eq04", "eq17"),
    "eso_mixed": ("eq41",),
    "eso_robust": ("eq62",),
    "eso_model_free": ("eq102",),
}


@pytest.mark.parametrize(
    "mode, condition_ids",
    LAW_CONDITIONS.items(),
    ids=[f"{mode}-{'-'.join(ids)}" for mode, ids in LAW_CONDITIONS.items()],
)
def test_engine_map_has_the_catalog_spectrum(mode, condition_ids):
    for seed in range(60):
        config = wide_problem(seed, mode)
        ours = np.linalg.eigvals(engine_map(config))
        catalog = np.concatenate(
            [
                np.linalg.eigvals(
                    loop_matrix(cid, config.plant, config.gains, config.law.surrogate)
                )
                for cid in condition_ids
            ]
        )
        assert ours.shape == catalog.shape
        cost = np.abs(ours[:, None] - catalog[None, :])
        rows, cols = linear_sum_assignment(cost)
        scale = max(1.0, np.abs(catalog).max())
        assert cost[rows, cols].max() <= 1e-10 * scale


@pytest.mark.parametrize("mode", LAW_MODES)
def test_law_map_is_the_engine_step(mode):
    # with zero target and uncertainty, the recorded rows X_k = [e; e_hat;
    # d_hat] of a run follow X_{k+1} = A X_k to rounding; e = -P u is
    # rounded at the scale of u, which need not decay with e on a wide
    # plant, so the residual is taken relative to the run's largest state
    worst = 0.0
    for seed in range(40):
        config = wide_problem(seed, mode)
        A, trace = engine_map(config), run(config)
        X = trace.e if mode == "p_type" else np.hstack([trace.e, trace.e_hat, trace.d_hat])
        assert len(X) == config.iterations
        residual = np.abs(X[1:] - X[:-1] @ A.T).max()
        worst = max(worst, residual / max(np.abs(X).max(), np.abs(trace.u).max()))
    assert worst <= 1e-12


def test_eso_mixed_runs_the_eq41_loop():
    # eq41 at a plant's model error is the loop of an observer on the
    # nominal map; on wide plants with model error every run that clearly
    # converged has eq41 holding and every run that diverged has it failing
    rng = np.random.default_rng(0)
    configs = []
    for _ in range(60):
        nominal = rng.standard_normal((2, 3))
        delta = rng.uniform(0, 1) * rng.standard_normal((2, 3))
        plant = TransferPlant(nominal=nominal, delta=delta)
        K = rng.uniform(0.2, 1.5) * synth_H_pseudo(nominal)
        observer = ObserverGain.diagonal(2, rng.uniform(0.3, 1.5), rng.uniform(0.05, 0.5))
        configs.append(
            SimulationConfig(
                plant=plant,
                target=rng.standard_normal(2),
                uncertainty=UncertaintyModel.zero(2),
                gains=GainSet(K=K, H=synth_H_pseudo(nominal), observer=observer),
                law=LearningLaw("eso_mixed"),
                iterations=1500,
            )
        )
    converged = diverged = 0
    for config, trace in zip(configs, run_batch(configs)):
        holds = check_condition("eq41", config.plant, config.gains).holds
        if trace.diverged:
            diverged += 1
            assert not holds
        elif trace.err_inf[-1] < 1e-8:
            converged += 1
            assert holds
    assert converged >= 30 and diverged >= 10


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


def test_memory_without_states_grows_only_by_the_drift_and_statistics():
    # the drift benchmark's runs: 8 model-free runs at T = 20
    def peak(iterations):
        configs = [
            presets.reference_config(seed, "eso_model_free", iterations, 20) for seed in range(1, 9)
        ]
        return traced_peak(partial(run_batch, states=False), configs)[1]

    runs, p, more = 8, 20, 2000
    drift, statistics = more * runs * p * 8, 5 * more * runs * 8
    # plus slack for a few small Python objects
    assert peak(2000 + more) - peak(2000) <= drift + statistics + 4096


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
