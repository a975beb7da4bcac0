import dataclasses

import numpy as np
import pytest

from iterlearn import presets
from iterlearn.learner import (
    GainSet,
    LearningLaw,
    SimulationConfig,
    estimate_stability_profile,
    read_trace_csv,
    run,
    synth_H_pseudo,
    synth_Hbar,
    trace_to_csv,
    write_trace_csv,
    TRACE_CSV_HEADER,
)
from iterlearn.matanalysis import induced_norm
from iterlearn.observer import ObserverGain
from iterlearn.plant import TransferPlant, UncertaintyModel, diff_stats, uncertainty_sequence


def scalar_plant(p_val=1.0):
    return TransferPlant(nominal=np.array([[p_val]]))


def full_row_rank_plant(rng, p_max=4, m_extra=2):
    p = int(rng.integers(1, p_max + 1))
    m = p + int(rng.integers(0, m_extra + 1))
    while True:
        P = rng.standard_normal((p, m))
        sv = np.linalg.svd(P, compute_uv=False)
        if sv[p - 1] > 1e-3 * sv[0]:
            return TransferPlant(nominal=P)


# ---------------------------------------------------------------------------
# gain synthesis
# ---------------------------------------------------------------------------

def test_synth_H_identity():
    assert np.allclose(synth_H_pseudo(np.eye(3)), np.eye(3))


def test_synth_H_wide_row():
    H = synth_H_pseudo(np.array([[1.0, 0.0]]))
    assert np.allclose(H, [[1.0], [0.0]])


def test_synth_H_right_inverse_residual():
    rng = np.random.default_rng(19)
    P = rng.standard_normal((3, 5))
    H = synth_H_pseudo(P)
    assert np.abs(P @ H - np.eye(3)).max() < 1e-10


def test_synth_H_is_a_right_inverse_of_ill_conditioned_lifted_plants():
    # the normal equations square P's condition number: on draw 1 at
    # T = 100 (cond 2.4e5) they left |P H - I| at 2.9e-7 and nonzeros up to
    # 8.7e-7 above the diagonal; forward substitution keeps the zeros
    def ninf(A):
        return np.abs(A).sum(axis=1).max()

    for draw in (0, 1, 2, 5, 16, 21, 22):
        P = presets.reference_plant(draw, 100).full()
        H = synth_H_pseudo(P)
        assert ninf(P @ H - np.eye(100)) <= 1e-12 * ninf(P) * ninf(H)
        assert not np.triu(H, 1).any()


def test_synth_H_square_and_wide_match_the_pseudo_inverse():
    rng = np.random.default_rng(37)
    for shape in ((4, 4), (3, 5), (1, 3), (6, 9)):
        P = rng.standard_normal(shape)
        H = synth_H_pseudo(P)
        assert np.abs(P @ H - np.eye(shape[0])).max() <= 1e-13
        assert np.abs(H - np.linalg.pinv(P)).max() <= 1e-12 * np.abs(H).max()
    L = np.tril(rng.standard_normal((5, 5))) + 3 * np.eye(5)
    assert np.abs(synth_H_pseudo(L) - np.linalg.inv(L)).max() <= 1e-14


def test_synth_H_rejects_rank_deficient():
    with pytest.raises(ValueError):
        synth_H_pseudo(np.array([[1.0, 0.0], [2.0, 0.0]]))


def test_synth_Hbar_identity():
    assert np.allclose(synth_Hbar(np.eye(2), np.eye(2)), np.eye(2))


def test_synth_Hbar_benchmark_value():
    # K = 0.5 inv(S) makes S K = 0.5 I, hence Hbar = 2 I
    rng = np.random.default_rng(2)
    S = np.tril(rng.standard_normal((4, 4))) + 4 * np.eye(4)
    K = 0.5 * np.linalg.inv(S)
    assert np.allclose(synth_Hbar(S, K), 2 * np.eye(4), atol=1e-12)


def test_synth_Hbar_scalar():
    assert synth_Hbar(np.array([[2.0]]), np.array([[0.25]]))[0, 0] == pytest.approx(2.0)


def test_synth_Hbar_rejects_singular():
    with pytest.raises(ValueError):
        synth_Hbar(np.array([[1.0, 0.0]]), np.array([[0.0], [1.0]]))


def test_gainset_requires_consistent_H_Hbar():
    K = np.array([[0.5]])
    GainSet(K=K, H=np.array([[1.0]]), Hbar=np.array([[2.0]]))  # consistent
    with pytest.raises(ValueError):
        GainSet(K=K, H=np.array([[1.5]]), Hbar=np.array([[2.0]]))


def test_gainset_requires_observer_of_the_error_dimension():
    K = 0.5 * np.eye(2)
    GainSet(K=K, observer=ObserverGain.diagonal(2, 0.9, 0.1))
    with pytest.raises(ValueError, match="observer gains must be 2x2"):
        GainSet(K=K, observer=ObserverGain.diagonal(1, 0.9, 0.1))
    with pytest.raises(ValueError, match="observer gains must be 1x1"):
        GainSet(K=np.ones((3, 1)), observer=ObserverGain.diagonal(3, 0.9, 0.1))


def test_learning_law_validation():
    with pytest.raises(ValueError):
        LearningLaw(mode="q_type")
    with pytest.raises(ValueError):
        LearningLaw(mode="eso_model_free")  # missing surrogate
    with pytest.raises(ValueError):
        LearningLaw(mode="eso_model_free", surrogate=np.array([[1.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        LearningLaw(mode="p_type", surrogate=np.eye(2))


# ---------------------------------------------------------------------------
# closed-loop engine
# ---------------------------------------------------------------------------

def test_p_type_geometric_closed_form():
    config = SimulationConfig(
        plant=scalar_plant(),
        target=np.array([1.0]),
        uncertainty=UncertaintyModel.zero(1),
        gains=GainSet(K=np.array([[0.5]])),
        law=LearningLaw(mode="p_type"),
        iterations=40,
    )
    trace = run(config)
    expected = 0.5 ** np.arange(40)
    assert np.array_equal(trace.err_inf, expected)


def test_exact_fixed_point_stays_exact():
    # representable values make U0 = Yd - N an exact fixed point
    target = np.array([1.5, -0.75])
    noise = np.array([0.25, 0.5])
    plant = TransferPlant(nominal=np.eye(2))
    for mode in ("p_type", "eso_mixed"):
        gains = GainSet(
            K=0.5 * np.eye(2),
            H=np.eye(2) if mode == "eso_mixed" else None,
            observer=ObserverGain.diagonal(2, 0.9, 0.1) if mode == "eso_mixed" else None,
        )
        config = SimulationConfig(
            plant=plant,
            target=target,
            uncertainty=UncertaintyModel.constant(noise),
            gains=gains,
            law=LearningLaw(mode=mode),
            iterations=25,
            u0=target - noise,
        )
        trace = run(config)
        assert np.array_equal(trace.err_inf, np.zeros(25))


def test_input_change_bookkeeping_exact():
    rng = np.random.default_rng(4)
    plant = full_row_rank_plant(rng)
    p, m = plant.shape
    K = 0.4 * synth_H_pseudo(plant.full())
    config = SimulationConfig(
        plant=plant,
        target=rng.standard_normal(p),
        uncertainty=UncertaintyModel.seeded_bounded(p, 0.5, seed=1),
        gains=GainSet(K=K),
        law=LearningLaw(mode="p_type"),
        iterations=30,
    )
    trace = run(config)
    # recorded ubar_k is exactly -(u_{k+1} - u_k)
    assert np.array_equal(trace.u[1:], trace.u[:-1] - trace.ubar[:-1])


def test_trace_plant_equation_exact():
    rng = np.random.default_rng(8)
    plant = full_row_rank_plant(rng)
    p, _ = plant.shape
    model = UncertaintyModel.seeded_bounded(p, 0.3, seed=2)
    config = SimulationConfig(
        plant=plant,
        target=rng.standard_normal(p),
        uncertainty=model,
        gains=GainSet(K=0.5 * synth_H_pseudo(plant.full())),
        law=LearningLaw(mode="p_type"),
        iterations=20,
    )
    trace = run(config)
    P = plant.full()
    N = uncertainty_sequence(model, len(trace))
    for k in range(len(trace)):
        y_expected = P @ trace.u[k] + N[k]
        assert np.array_equal(trace.y[k], y_expected)
        assert np.array_equal(trace.e[k], config.target - trace.y[k])


def test_constant_uncertainty_drives_error_to_zero():
    rng = np.random.default_rng(21)
    for _ in range(6):
        plant = full_row_rank_plant(rng)
        p, _ = plant.shape
        c = rng.uniform(0.2, 0.8)
        config = SimulationConfig(
            plant=plant,
            target=rng.standard_normal(p),
            uncertainty=UncertaintyModel.constant(rng.standard_normal(p)),
            gains=GainSet(K=c * synth_H_pseudo(plant.full())),
            law=LearningLaw(mode="p_type"),
            iterations=2000,
        )
        trace = run(config)
        assert trace.err_inf[-1] < 1e-9


def test_full_state_law_converges_on_constant_uncertainty():
    rng = np.random.default_rng(33)
    plant = full_row_rank_plant(rng)
    p, _ = plant.shape
    P = plant.full()
    gains = GainSet(
        K=0.5 * synth_H_pseudo(P),
        H=synth_H_pseudo(P),
        observer=ObserverGain.diagonal(p, 0.9, 0.1),
    )
    config = SimulationConfig(
        plant=plant,
        target=rng.standard_normal(p),
        uncertainty=UncertaintyModel.constant(rng.standard_normal(p)),
        gains=gains,
        law=LearningLaw(mode="eso_full_state"),
        iterations=1500,
    )
    trace = run(config)
    assert trace.err_inf[-1] < 1e-9


def test_superstability_separation_on_ramp():
    rng = np.random.default_rng(55)
    for _ in range(5):
        plant = full_row_rank_plant(rng)
        p, _ = plant.shape
        P = plant.full()
        c = rng.uniform(0.3, 0.7)
        K = c * synth_H_pseudo(P)
        slope = rng.standard_normal(p)
        target = rng.standard_normal(p)
        mixed = SimulationConfig(
            plant=plant,
            target=target,
            uncertainty=UncertaintyModel.ramp(slope),
            gains=GainSet(
                K=K, H=synth_H_pseudo(P), observer=ObserverGain.diagonal(p, 0.9, 0.1)
            ),
            law=LearningLaw(mode="eso_mixed"),
            iterations=3000,
        )
        assert run(mixed).err_inf[-1] < 1e-8

        plain = SimulationConfig(
            plant=plant,
            target=target,
            uncertainty=UncertaintyModel.ramp(slope),
            gains=GainSet(K=K),
            law=LearningLaw(mode="p_type"),
            iterations=2000,
        )
        trace = run(plain)
        tail = trace.err_inf[-50:].max()
        # the plain law stalls at the level of the uncertainty variation:
        # tail within [0.5, 2] of |slope|_inf / (1 - |I - P K|_inf), where
        # I - P K is (1 - c) I up to rounding
        bound = np.abs(slope).max() / (1.0 - induced_norm(np.eye(p) - P @ K, "infinity"))
        assert 0.5 * bound <= tail <= 2.0 * bound


def test_error_recursion_identity_mixed():
    # with the right-inverse compensation gain, the recorded errors obey
    # e_{k+1} = (I - P K) e_k + (d_k - d^_k) step by step
    rng = np.random.default_rng(91)
    plant = full_row_rank_plant(rng)
    p, _ = plant.shape
    P = plant.full()
    gains = GainSet(
        K=0.45 * synth_H_pseudo(P),
        H=synth_H_pseudo(P),
        observer=ObserverGain.diagonal(p, 0.9, 0.1),
    )
    config = SimulationConfig(
        plant=plant,
        target=rng.standard_normal(p),
        uncertainty=UncertaintyModel.cumulative_sine(p),
        gains=gains,
        law=LearningLaw(mode="eso_mixed"),
        iterations=300,
    )
    trace = run(config)
    loop = np.eye(p) - P @ gains.K
    for k in range(len(trace) - 1):
        predicted = loop @ trace.e[k] + (trace.d_true[k] - trace.d_hat[k])
        assert np.abs(trace.e[k + 1] - predicted).max() < 1e-10


def test_error_recursion_identity_robust():
    # aggregated-disturbance law against a plant with model error: the
    # recorded errors obey e_{k+1} = (I - P0 K) e_k + (d_k - d^_k) where
    # d is the aggregate of external and model-error effects
    rng = np.random.default_rng(92)
    p, m = 2, 3
    P0 = rng.standard_normal((p, m))
    delta = 0.15 * rng.standard_normal((p, m))
    plant = TransferPlant(nominal=P0, delta=delta)
    K = 0.5 * synth_H_pseudo(P0)
    gains = GainSet(
        K=K, Hbar=synth_Hbar(P0, K), observer=ObserverGain.diagonal(p, 0.9, 0.1)
    )
    config = SimulationConfig(
        plant=plant,
        target=rng.standard_normal(p),
        uncertainty=UncertaintyModel.cumulative_sine(p),
        gains=gains,
        law=LearningLaw(mode="eso_robust"),
        iterations=300,
    )
    trace = run(config)
    loop = np.eye(p) - P0 @ K
    for k in range(len(trace) - 1):
        predicted = loop @ trace.e[k] + (trace.d_true[k] - trace.d_hat[k])
        assert np.abs(trace.e[k + 1] - predicted).max() < 1e-10


def test_divergence_flagged_and_truncated():
    config = SimulationConfig(
        plant=scalar_plant(),
        target=np.array([1.0]),
        uncertainty=UncertaintyModel.zero(1),
        gains=GainSet(K=np.array([[3.0]])),  # rho(I - P K) = 2
        law=LearningLaw(mode="p_type"),
        iterations=500,
    )
    trace = run(config)
    assert trace.diverged
    assert trace.diverged_at is not None
    assert len(trace) == trace.diverged_at + 1
    assert len(trace) < 500
    assert np.all(np.isfinite(trace.err_inf))


def test_config_validation_errors():
    plant = scalar_plant()
    with pytest.raises(ValueError):
        SimulationConfig(
            plant=plant,
            target=np.array([1.0, 2.0]),
            uncertainty=UncertaintyModel.zero(1),
            gains=GainSet(K=np.array([[0.5]])),
            law=LearningLaw(mode="p_type"),
            iterations=10,
        )
    with pytest.raises(ValueError):
        SimulationConfig(
            plant=plant,
            target=np.array([1.0]),
            uncertainty=UncertaintyModel.zero(1),
            gains=GainSet(K=np.array([[0.5]])),
            law=LearningLaw(mode="eso_mixed"),  # missing observer and H
            iterations=10,
        )


# ---------------------------------------------------------------------------
# stability profile estimation
# ---------------------------------------------------------------------------

def _ramp_setup(mode, iterations, rng):
    plant = full_row_rank_plant(rng)
    p, _ = plant.shape
    P = plant.full()
    K = 0.5 * synth_H_pseudo(P)
    gains = GainSet(
        K=K,
        H=synth_H_pseudo(P) if mode == "eso_mixed" else None,
        observer=ObserverGain.diagonal(p, 0.9, 0.1) if mode == "eso_mixed" else None,
    )
    # slopes on a dyadic grid make k * slope exact, so the second
    # difference of the ramp is exactly zero in floating point
    slope = rng.integers(1, 65, p) * rng.choice([-1.0, 1.0], p) / 64.0
    model = UncertaintyModel.ramp(slope)
    config = SimulationConfig(
        plant=plant,
        target=rng.standard_normal(p),
        uncertainty=model,
        gains=gains,
        law=LearningLaw(mode=mode),
        iterations=iterations,
    )
    return config, model


def test_profile_superattractive_consistent_for_mixed_on_ramp():
    rng = np.random.default_rng(61)
    config, model = _ramp_setup("eso_mixed", 2000, rng)
    trace = run(config)
    stats1 = diff_stats(model, 1, horizon=2000, tail_window=100)
    stats2 = diff_stats(model, 2, horizon=2000, tail_window=100)
    profile = estimate_stability_profile(trace, stats1, stats2, tail_window=100)
    assert profile.tail_err < 1e-10
    assert profile.superattractive_consistent


def test_profile_plain_law_not_superattractive_on_ramp():
    rng = np.random.default_rng(62)
    config, model = _ramp_setup("p_type", 2000, rng)
    trace = run(config)
    stats1 = diff_stats(model, 1, horizon=2000, tail_window=100)
    stats2 = diff_stats(model, 2, horizon=2000, tail_window=100)
    profile = estimate_stability_profile(trace, stats1, stats2, tail_window=100)
    assert profile.ratio_variation is not None and profile.ratio_variation > 0.1
    assert profile.ratio_variation_rate is None  # rate bound is exactly zero
    assert not profile.superattractive_consistent


def test_profile_zero_uncertainty():
    config = SimulationConfig(
        plant=scalar_plant(),
        target=np.array([1.0]),
        uncertainty=UncertaintyModel.zero(1),
        gains=GainSet(K=np.array([[0.5]])),
        law=LearningLaw(mode="p_type"),
        iterations=300,
    )
    trace = run(config)
    model = UncertaintyModel.zero(1)
    stats1 = diff_stats(model, 1, horizon=300, tail_window=50)
    stats2 = diff_stats(model, 2, horizon=300, tail_window=50)
    profile = estimate_stability_profile(trace, stats1, stats2, tail_window=50)
    assert profile.tail_err <= profile.sup_err
    assert profile.tail_err < 1e-12
    assert profile.superattractive_consistent


def test_profile_requires_long_trace():
    config = SimulationConfig(
        plant=scalar_plant(),
        target=np.array([1.0]),
        uncertainty=UncertaintyModel.zero(1),
        gains=GainSet(K=np.array([[0.5]])),
        law=LearningLaw(mode="p_type"),
        iterations=10,
    )
    trace = run(config)
    model = UncertaintyModel.zero(1)
    stats1 = diff_stats(model, 1, horizon=100, tail_window=20)
    stats2 = diff_stats(model, 2, horizon=100, tail_window=20)
    with pytest.raises(ValueError):
        estimate_stability_profile(trace, stats1, stats2, tail_window=10)


# ---------------------------------------------------------------------------
# trace CSV
# ---------------------------------------------------------------------------

def test_trace_csv_header_and_round_trip(tmp_path):
    config = SimulationConfig(
        plant=scalar_plant(),
        target=np.array([1.0]),
        uncertainty=UncertaintyModel.zero(1),
        gains=GainSet(K=np.array([[0.5]])),
        law=LearningLaw(mode="p_type"),
        iterations=12,
    )
    trace = run(config)
    text = trace_to_csv(trace)
    assert text.splitlines()[0] == TRACE_CSV_HEADER
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    data = read_trace_csv(path)
    assert np.array_equal(data["err_inf"], trace.err_inf)
    assert np.array_equal(data["k"], np.arange(12))
    assert np.all(np.isnan(data["obs_err_norm"]))  # no observer in this law
    assert np.all(data["diverged"] == 0)


def reference_trace_csv(trace):
    """One f-string per value, kept as the oracle of ``trace_to_csv``."""
    lines = [TRACE_CSV_HEADER]
    n = len(trace)
    for k in range(n):
        flag = 1 if (trace.diverged and k == n - 1) else 0
        vals = (
            trace.err_inf[k],
            trace.err_2[k],
            trace.u_norm[k],
            trace.ubar_norm[k],
            trace.obs_err_norm[k],
        )
        lines.append(f"{k}," + ",".join(f"{v:.17g}" for v in vals) + f",{flag}")
    return "\n".join(lines) + "\n"


def test_trace_csv_matches_per_value_formatter(tmp_path):
    config = SimulationConfig(
        plant=scalar_plant(),
        target=np.array([1.0]),
        uncertainty=UncertaintyModel.ramp([0.25]),
        gains=GainSet(K=np.array([[0.5]])),
        law=LearningLaw(mode="p_type"),
        iterations=12,
    )
    trace = run(config)
    assert trace_to_csv(trace) == reference_trace_csv(trace)
    # nan, infinities, signed zeros, subnormals and values at the edges of
    # 17-digit formatting
    special = np.array(
        [
            np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e-310, -2.5e-320,
            1e308, 1.0 / 3.0, -123456789.125, 1e16,
        ]
    )
    odd = dataclasses.replace(
        trace,
        err_inf=special,
        err_2=special[::-1].copy(),
        u_norm=np.roll(special, 3),
        ubar_norm=np.roll(special, 5),
        obs_err_norm=np.roll(special, 7),
        diverged=True,
        diverged_at=11,
    )
    text = trace_to_csv(odd)
    assert text == reference_trace_csv(odd)
    assert text.splitlines()[-1].endswith(",1")
    assert ",nan," in text and ",-inf," in text and ",-0," in text
    columns = ("err_inf", "err_2", "u_norm", "ubar_norm", "obs_err_norm")
    # every value comes back bit for bit
    write_trace_csv(tmp_path / "odd.csv", odd)
    back = read_trace_csv(tmp_path / "odd.csv")
    for c in columns:
        assert back[c].tobytes() == getattr(odd, c).tobytes()
    assert np.array_equal(back["k"], np.arange(len(special)))
    assert np.array_equal(back["diverged"], [0] * (len(special) - 1) + [1])
    first = dataclasses.replace(odd, **{c: special[:1] for c in columns})
    assert trace_to_csv(first) == reference_trace_csv(first)
    assert trace_to_csv(first).endswith(",1\n")
    empty = dataclasses.replace(odd, **{c: special[:0] for c in columns})
    assert trace_to_csv(empty) == reference_trace_csv(empty) == TRACE_CSV_HEADER + "\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "unexpected trace CSV header in"),
        ("k,err_inf\n0,1\n", "unexpected trace CSV header in"),
        (TRACE_CSV_HEADER + "\n\n", "has no data rows"),
        (TRACE_CSV_HEADER + "\n0,1,2,3,4,nan,0\n1,2,3\n", "malformed trace CSV row: '1,2,3'"),
        (TRACE_CSV_HEADER + "\n0,1,2,3,4,5,6,7\n", "malformed trace CSV row: '0,1,2,3,4,5,6,7'"),
        (TRACE_CSV_HEADER + "\n0,1,x,3,4,nan,0\n", "could not convert string to float: 'x'"),
        (TRACE_CSV_HEADER + "\n0,1,,3,4,nan,0\n", "could not convert string to float: ''"),
    ],
)
def test_read_trace_csv_rejects_malformed_files(tmp_path, text, message):
    path = tmp_path / "trace.csv"
    path.write_text(text, encoding="ascii")
    with pytest.raises(ValueError) as err:
        read_trace_csv(path)
    assert message in str(err.value)
    if "header" in message or "no data" in message:
        assert str(path) in str(err.value)
