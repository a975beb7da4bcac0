import io
import itertools
import json
import math
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.linalg import solve_discrete_lyapunov

from iterlearn import cli, presets, stability
from iterlearn.learner import (
    GainSet,
    LearningLaw,
    SimulationConfig,
    run,
    synth_H_pseudo,
    synth_Hbar,
)
from iterlearn.matanalysis import block_spectral_radius, induced_norm, time_steps
from iterlearn.observer import ObserverGain, error_dynamics_matrix
from iterlearn.plant import (
    StructuredUncertainty,
    TransferPlant,
    UncertaintyModel,
)
from iterlearn.stability import (
    CONDITION_IDS,
    LMI_IDS,
    SEPARATION_IDS,
    _CATALOG,
    LmiCertificate,
    _accepts,
    _at_error,
    _lmi_blocks,
    _lmi_grid,
    _lyapunov_seed,
    _robust_form,
    _robust_loop,
    _schur_term,
    _steps,
    _structure_steps,
    _tolerance,
    certificate_to_dict,
    check_condition,
    lmi_search,
    lmi_verify,
    loop_matrix,
    save_certificate,
)

from extended_state import build_extended, law_map
from stability_oracles import (
    _assemble_lmi,
    certificate_from_dict,
    cholesky_negative_definite,
    inequality_of,
    load_certificate,
    sample_structured_delta,
    scatter_steps,
    theorem_implication_check,
    verify_separation,
)


def scalar_setup(p_val=1.0, k_val=0.5):
    plant = TransferPlant(nominal=np.array([[p_val]]))
    gains = GainSet(K=np.array([[k_val]]))
    return plant, gains


def random_gainset(rng, plant, with_H=True, with_Hbar=True):
    p, m = plant.shape
    K = rng.uniform(0.3, 0.7) * synth_H_pseudo(plant.nominal)
    H = synth_H_pseudo(plant.full()) if with_H else None
    Hbar = synth_Hbar(plant.nominal, K) if with_Hbar else None
    observer = ObserverGain.diagonal(p, rng.uniform(0.6, 1.1), rng.uniform(0.05, 0.3))
    return GainSet(K=K, H=H, Hbar=Hbar, observer=observer)


def random_plant(rng, p_max=3, with_delta=False, delta_scale=0.1):
    p = int(rng.integers(1, p_max + 1))
    m = p + int(rng.integers(0, 3))
    while True:
        P0 = rng.standard_normal((p, m))
        sv = np.linalg.svd(P0, compute_uv=False)
        if sv[p - 1] > 1e-3 * sv[0]:
            break
    delta = delta_scale * rng.standard_normal((p, m)) if with_delta else None
    return TransferPlant(nominal=P0, delta=delta)


def oracle_loop_matrix(condition_id, plant=None, gains=None, surrogate=None):
    """The catalog loops as first written, one formula per id at the plant's
    model error, kept as the oracle of ``loop_matrix``."""
    K = gains.K
    if condition_id == "eq17":
        return error_dynamics_matrix(gains.observer)
    if condition_id == "eq95":
        return np.eye(surrogate.shape[0]) - surrogate @ K
    if condition_id == "eq48":
        return np.eye(plant.shape[0]) - plant.nominal @ K
    P = plant.full()
    I = np.eye(P.shape[0])
    if condition_id == "eq04":
        return I - P @ K
    og = gains.observer
    A_lc, Lbar, es = error_dynamics_matrix(og), og.stacked, build_extended(og.p, P)
    if condition_id == "eq41":
        CPd = es.Cbar.T @ plant.delta
        return np.block(
            [[I - P @ K, -P @ gains.H @ es.F], [CPd @ K, A_lc + CPd @ gains.H @ es.F]]
        )
    mismatch = -plant.delta if condition_id == "eq62" else surrogate - P
    return np.block([[I - P @ K, gains.Hbar @ es.F], [Lbar @ mismatch @ K, A_lc]])


#: the condition each inequality certifies for every structured model error
ORACLE_IMPLIED = {"eq44": "eq41", "eq65": "eq62", "eq101": "eq102"}


# ---------------------------------------------------------------------------
# spectral conditions
# ---------------------------------------------------------------------------

def test_every_catalog_loop_matches_the_per_id_formulas():
    # every id on square and non-square plants with a model error, the
    # surrogate apart from the nominal map
    rng = np.random.default_rng(4)
    for i in range(60):
        p = 1 + i % 3
        m = p + (i // 3) % 3
        P0 = rng.standard_normal((p, m))
        plant = TransferPlant(nominal=P0, delta=0.3 * rng.standard_normal((p, m)))
        gains_H = random_gainset(rng, plant, with_Hbar=False)
        gains_Hbar = random_gainset(rng, plant, with_H=False)
        surrogate = P0 + 0.2 * rng.standard_normal((p, m))
        for condition_id in CONDITION_IDS:
            gains = gains_H if condition_id == "eq41" else gains_Hbar
            M = loop_matrix(condition_id, plant, gains, surrogate)
            oracle = oracle_loop_matrix(condition_id, plant, gains, surrogate)
            assert M.shape == oracle.shape
            assert np.abs(M - oracle).max() <= 1e-13 * np.abs(oracle).max()
            rep = check_condition(condition_id, plant, gains, surrogate)
            rho, _ = block_spectral_radius(oracle, p)
            assert rep.holds == (rho < 1.0)
            assert abs(rep.rho - rho) <= 1e-9 * rho


def test_eq04_scalar_holds_and_fails():
    plant, gains = scalar_setup()
    rep = check_condition("eq04", plant, gains)
    assert rep.holds and rep.rho == pytest.approx(0.5)
    assert rep.matrix_dim == 1

    plant, gains = scalar_setup(k_val=3.0)
    rep = check_condition("eq04", plant, gains)
    assert not rep.holds and rep.rho == pytest.approx(2.0)


def test_eq17_benchmark_gains():
    gains = GainSet(K=np.array([[0.5]]), observer=ObserverGain.diagonal(1, 0.9, 0.1))
    rep = check_condition("eq17", gains=gains)
    assert rep.holds
    assert rep.rho == pytest.approx(0.87015621187164243, abs=1e-12)
    assert rep.matrix_dim == 2


def test_eq41_zero_delta_reduces_to_block_triangular():
    # without model error the H-design (eq41), aggregated-disturbance (eq62)
    # and model-free (eq102) loops are the learning loop over the observer
    # loop; these zero-error matrices are the certificate search's seeds
    rng = np.random.default_rng(10)
    for _ in range(10):
        plant = random_plant(rng, with_delta=False)
        gains_H = random_gainset(rng, plant, with_Hbar=False)
        gains_Hbar = random_gainset(rng, plant, with_H=False)
        surrogate = plant.nominal
        exact_surrogate = TransferPlant(nominal=np.zeros_like(surrogate), delta=surrogate)
        for condition_id, a_plant, gains, learning_id in (
            ("eq41", plant, gains_H, "eq04"),
            ("eq62", plant, gains_Hbar, "eq48"),
            ("eq102", exact_surrogate, gains_Hbar, "eq95"),
        ):
            M = loop_matrix(condition_id, a_plant, gains, surrogate)
            p = a_plant.shape[0]
            assert np.all(M[p:, :p] == 0.0)
            rep = check_condition(condition_id, a_plant, gains, surrogate)
            sub1 = check_condition(learning_id, a_plant, gains, surrogate).rho
            sub2 = check_condition("eq17", gains=gains).rho
            assert rep.rho == pytest.approx(max(sub1, sub2), abs=1e-8)


def test_eq102_depends_only_on_true_map_and_surrogate():
    # the model-free loop sees the true map, however it is split into a
    # nominal part and a model error
    rng = np.random.default_rng(102)
    for _ in range(20):
        plant = random_plant(rng, with_delta=True)
        gains = random_gainset(rng, plant, with_H=False)
        surrogate = plant.nominal
        model_free = TransferPlant(nominal=np.zeros_like(surrogate), delta=plant.full())
        split = check_condition("eq102", plant, gains, surrogate)
        whole = check_condition("eq102", model_free, gains, surrogate)
        assert split.rho == whole.rho


@pytest.mark.parametrize("horizon,seed", [(4, 0), (4, 1), (6, 1)])
def test_lifted_loop_radius_matches_high_precision_solve(horizon, seed):
    # eq62 and eq102 of a benchmark draw carry a horizon-fold defective
    # eigenvalue; a 50-digit solve of the whole matrix scatters it by about
    # 1e-50^(1/horizon), below 1e-8 here, while a double-precision dense
    # solve scatters it by 1e-6 or more
    surrogate = presets.banded_surrogate(horizon)
    gains = presets.reference_gains(surrogate)
    plant = presets.reference_plant(seed, horizon=horizon)
    for condition_id in ("eq62", "eq102"):
        M = loop_matrix(condition_id, plant, gains, surrogate)
        with mpmath.workdps(50):
            eigs = mpmath.eig(mpmath.matrix(M.tolist()), left=False, right=False)
            exact = float(max(abs(w) for w in eigs))
        rep = check_condition(condition_id, plant, gains, surrogate)
        assert rep.method == "block_triangular"
        assert abs(rep.rho - exact) < 1e-8


def test_wide_benchmark_draw_verdict_is_exact():
    # at T = 100 a dense solve read eq62 as 1.167 (fails) for this draw
    surrogate = presets.banded_surrogate(100)
    gains = presets.reference_gains(surrogate)
    plant = presets.reference_plant(0, horizon=100)
    rep = check_condition("eq62", plant, gains, surrogate)
    assert rep.method == "block_triangular" and rep.holds
    assert rep.rho == pytest.approx(0.903108417992, abs=1e-9)
    assert rep.margin == 1.0 - rep.rho
    rep = check_condition("eq102", plant, gains, surrogate)
    assert rep.method == "block_triangular" and rep.holds
    assert rep.rho == pytest.approx(0.884565458413, abs=1e-9)


def test_reference_experiment_reports_are_all_block_triangular(tmp_path):
    # every report of the lifted benchmark must take the structured path; a
    # silent fall back to the dense solve would bring the wrong verdicts back
    config = presets.write_reference_experiment(tmp_path, seeds=[0, 11], horizon=100)
    exp = cli.load_experiment(config)
    conditions = exp.condition_map()
    assert list(conditions) == ["0", "11"]
    for reports in conditions.values():
        assert [r["condition_id"] for r in reports] == ["eq04", "eq17", "eq62", "eq95", "eq102"]
        for r in reports:
            assert r["method"] == "block_triangular"
            assert r["margin"] == 1.0 - r["rho"]
            assert r["holds"] == (r["rho"] < 1.0)


def test_dense_plants_report_dense_method():
    rng = np.random.default_rng(48)
    plant = random_plant(rng, p_max=3)
    while plant.shape[0] < 2:
        plant = random_plant(rng, p_max=3)
    gains = random_gainset(rng, plant, with_H=False)
    rep = check_condition("eq62", plant, gains)
    assert rep.method == "dense"
    assert rep.to_dict()["method"] == "dense"


def test_eq48_uses_nominal_only():
    plant = TransferPlant(nominal=np.array([[1.0]]), delta=np.array([[5.0]]))
    gains = GainSet(K=np.array([[0.5]]))
    rep = check_condition("eq48", plant, gains)
    assert rep.rho == pytest.approx(0.5)


def test_eq95_and_eq102_with_surrogate():
    surrogate = np.array([[2.0]])
    plant = TransferPlant(nominal=np.array([[0.0]]), delta=np.array([[1.6]]))
    K = np.array([[0.25]])  # surrogate K = 0.5
    gains = GainSet(
        K=K, Hbar=synth_Hbar(surrogate, K), observer=ObserverGain.diagonal(1, 0.9, 0.1)
    )
    rep95 = check_condition("eq95", plant, gains, surrogate=surrogate)
    assert rep95.holds and rep95.rho == pytest.approx(0.5)
    rep102 = check_condition("eq102", plant, gains, surrogate=surrogate)
    assert rep102.matrix_dim == 3
    assert 0 < rep102.rho < 1


def test_missing_ingredients_raise():
    plant, gains = scalar_setup()
    with pytest.raises(ValueError):
        check_condition("eq62", plant, gains)  # no Hbar, no observer
    with pytest.raises(ValueError):
        check_condition("eq95", plant, gains)  # no surrogate
    with pytest.raises(ValueError):
        check_condition("eq01", plant, gains)  # unknown id


# ---------------------------------------------------------------------------
# separation identities
# ---------------------------------------------------------------------------

def oracle_separation_loop(identity_id, plant, gains):
    """Each identity's unseparated loop, its block-triangular target and the
    shear of its unit-triangular transformation, as first laid out by hand;
    ``eq76``'s loop is in the coordinates ``[(P K)^-1 E; -e_hat; -d_hat]``."""
    P, P0, K, og = plant.full(), plant.nominal, gains.K, gains.observer
    A_lc, Lbar = error_dynamics_matrix(og), og.stacked
    es = build_extended(og.p, P if identity_id in ("eq20", "eq30") else P0)
    p, F, Bbar = es.p, es.F, es.Bbar_used
    I, Zp, shear = np.eye(p), np.zeros((2 * p, p)), -es.Cbar.T
    if identity_id == "eq20":
        Kbar = np.hstack([K, gains.H])
        M = np.block([[I, -P @ Kbar], [Lbar, A_lc - Bbar @ Kbar]])
        target = np.block([[I - P @ K, -P @ Kbar], [Zp, A_lc]])
    elif identity_id == "eq30":
        H = gains.H
        M = np.block([[I - P @ K, -P @ H @ F], [Lbar - Bbar @ K, A_lc - Bbar @ H @ F]])
        target = np.block([[I - P @ K, -P @ H @ F], [Zp, A_lc]])
    elif identity_id == "eq61":
        KHF = K @ gains.Hbar @ F
        M = np.block([[I - P0 @ K, -P0 @ KHF], [Lbar - Bbar @ K, A_lc - Bbar @ KHF]])
        target = np.block([[I - P0 @ K, -P0 @ KHF], [Zp, A_lc]])
    else:  # eq76
        shear, HF = Bbar @ K, gains.Hbar @ F
        M = np.block([[I - P @ K, HF], [(shear - Lbar) @ P @ K, A_lc - shear @ HF]])
        target = np.block([[I - P @ K, HF], [-Lbar @ plant.delta @ K, A_lc]])
    return M, target, shear


def assert_separation_matches_the_oracle(identity_id, plant, gains):
    """The identity's loop is its law's ``law_map`` (``eq76`` after the
    change of coordinates), and ``verify_separation`` holds with the
    oracle's target and transformation; returns whether the target is
    block upper-triangular."""
    P, P0, K = plant.full(), plant.nominal, gains.K
    p = P.shape[0]
    if identity_id == "eq76":
        C = np.eye(3 * p)
        C[:p, :p], C[p:, p:] = np.linalg.inv(P @ K), -np.eye(2 * p)
        ours = C @ law_map("eso_robust", P, gains, P0) @ np.linalg.inv(C)
    elif identity_id == "eq61":
        ours = law_map("eso_robust", P0, gains)
    else:
        ours = law_map("eso_full_state" if identity_id == "eq20" else "eso_mixed", P, gains)
    M, target, shear = oracle_separation_loop(identity_id, plant, gains)
    assert ours.shape == M.shape
    assert np.abs(ours - M).max() <= 1e-12 * np.abs(M).max()
    T = np.eye(3 * p)
    T[p:, :p] = shear
    Tinv = np.eye(3 * p)
    Tinv[p:, :p] = -shear
    oracle_residual = np.abs(T @ M @ Tinv - target).max()
    residual, upper = verify_separation(identity_id, plant, gains)
    assert oracle_residual < 1e-10 and residual < 1e-10
    assert upper == bool(np.abs(target[p:, :p]).max() < 1e-10)
    return upper


@pytest.mark.parametrize("identity_id", ["eq20", "eq30", "eq61", "eq76"])
def test_separation_identities_random(identity_id):
    rng = np.random.default_rng(SEPARATION_IDS.index(identity_id))
    for _ in range(50):
        # eq76's target is block upper-triangular only without model error
        plant = random_plant(rng, with_delta=False)
        gains = random_gainset(rng, plant)
        assert assert_separation_matches_the_oracle(identity_id, plant, gains)


def test_eq76_residual_with_model_error():
    # with model error the identity still holds exactly, but the target
    # matrix is no longer block upper-triangular
    rng = np.random.default_rng(123)
    for _ in range(20):
        plant = random_plant(rng, with_delta=True, delta_scale=0.3)
        gains = random_gainset(rng, plant, with_H=False)
        assert not assert_separation_matches_the_oracle("eq76", plant, gains)


def test_eq30_zero_delta_lower_left_exactly_zero():
    rng = np.random.default_rng(7)
    plant = random_plant(rng, with_delta=False)
    gains = random_gainset(rng, plant)
    residual, upper = verify_separation("eq30", plant, gains)
    assert residual < 1e-10
    assert upper


def test_separation_unknown_id():
    plant, gains = scalar_setup()
    with pytest.raises(ValueError):
        verify_separation("eq99", plant, gains)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def small_instance(eta=0.1):
    P0 = np.array([[1.0]])
    K = np.array([[0.5]])
    og = ObserverGain.diagonal(1, 0.9, 0.1)
    gains44 = GainSet(K=K, H=synth_H_pseudo(P0), observer=og)
    gains65 = GainSet(K=K, Hbar=synth_Hbar(P0, K), observer=og)
    structure = StructuredUncertainty(phi1=np.array([[eta]]), phi2=np.array([[1.0]]))
    return P0, gains44, gains65, structure


def test_certificate_validation():
    for tau in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="tau must be finite and positive"):
            LmiCertificate(Q11=np.eye(1), Q21=np.zeros((2, 1)), Q22=np.eye(2), tau=tau)
    with pytest.raises(ValueError):
        LmiCertificate(Q11=-np.eye(1), Q21=np.zeros((2, 1)), Q22=np.eye(2), tau=1.0)
    cert = LmiCertificate(Q11=np.eye(1), Q21=np.zeros((2, 1)), Q22=np.eye(2), tau=1.0)
    assert cert.assembled().shape == (3, 3)


def test_certificate_symmetrizes_noise():
    # asymmetry within 1e-10 max(1, |Q|_max) is rounding noise: Q11 and Q22
    # are kept as (X + X^T) / 2, so every inequality assembled from them is
    # exactly symmetric, as the one full test (it reads one triangle) needs
    P0, gains44, _, structure = small_instance(eta=0.1)
    cert = lmi_search("eq44", P0, structure, gains44)
    Q22 = cert.Q22.copy()
    Q22[0, 1] += 1e-13
    noisy = LmiCertificate(Q11=cert.Q11, Q21=cert.Q21, Q22=Q22, tau=cert.tau)
    assert np.array_equal(noisy.Q22, 0.5 * (Q22 + Q22.T))
    assert not np.array_equal(noisy.Q22, Q22)
    Q = noisy.assembled()
    assert np.array_equal(Q, Q.T)
    G = _assemble_lmi(Q, noisy.tau, _robust_loop("eq44", P0, structure, gains44), structure)
    assert np.array_equal(G, G.T)
    assert lmi_verify("eq44", noisy, P0, structure, gains44) is True
    # an exactly symmetric block, as every found certificate has, keeps its bits
    again = LmiCertificate(Q11=cert.Q11, Q21=cert.Q21, Q22=cert.Q22, tau=cert.tau)
    assert cert.assembled().tobytes() == again.assembled().tobytes()


def test_lmi_verify_rejects_an_inequality_that_overflows():
    # tau phi2 E overflows: the inequality is not satisfied, as the search
    # rejects such a candidate, with no warning and no error
    P0, gains44, _, _ = small_instance()
    structure = StructuredUncertainty(phi1=np.array([[0.1]]), phi2=np.array([[1e300]]))
    cert = LmiCertificate(Q11=np.eye(1), Q21=np.zeros((2, 1)), Q22=np.eye(2), tau=1e10)
    assert lmi_verify("eq44", cert, P0, structure, gains44) is False


def test_search_and_verify_accept_by_one_test(monkeypatch):
    # the screen is the acceptor at tol = 0; the search's last call, the
    # full test that accepted, is the call lmi_verify makes
    calls = []
    accepts = stability._accepts

    def counted(blocks, tau, tol, schur=None):
        calls.append((b"".join(X.tobytes() for X in blocks), blocks.Q.shape, tau, tol))
        return accepts(blocks, tau, tol, schur)

    monkeypatch.setattr(stability, "_accepts", counted)
    P0, gains44, _, structure = small_instance(eta=0.1)
    cert = lmi_search("eq44", P0, structure, gains44)
    assert cert is not None and len(calls) >= 2
    assert calls[-1][3] > 0 and all(call[3] == 0.0 for call in calls[:-1])
    searched = len(calls)
    assert lmi_verify("eq44", cert, P0, structure, gains44) is True
    assert calls[searched:] == [calls[searched - 1]]


def test_lmi_verify_zero_structure_with_lyapunov_seed():
    from scipy.linalg import solve_discrete_lyapunov

    P0, gains44, _, _ = small_instance()
    structure0 = StructuredUncertainty(phi1=np.zeros((1, 1)), phi2=np.zeros((1, 1)))
    A_lc = np.array([[0.1, 1.0], [-0.1, 1.0]])
    F = np.array([[0.0, 1.0]])
    M0 = np.block(
        [[np.eye(1) - P0 @ gains44.K, -P0 @ gains44.H @ F], [np.zeros((2, 1)), A_lc]]
    )
    Q = solve_discrete_lyapunov(M0.T, np.eye(3))
    Q /= np.linalg.norm(Q, 2)
    cert = LmiCertificate(Q11=Q[:1, :1], Q21=Q[1:, :1], Q22=Q[1:, 1:], tau=1e-3)
    assert lmi_verify("eq44", cert, P0, structure0, gains44) is True


def test_lmi_search_small_structure_finds_certificate():
    P0, gains44, gains65, structure = small_instance(eta=0.1)
    cert44 = lmi_search("eq44", P0, structure, gains44)
    assert cert44 is not None
    assert lmi_verify("eq44", cert44, P0, structure, gains44)
    cert65 = lmi_search("eq65", P0, structure, gains65)
    assert cert65 is not None
    assert lmi_verify("eq65", cert65, P0, structure, gains65)


def test_lmi_search_unstable_nominal_returns_none():
    P0 = np.array([[1.0]])
    K = np.array([[3.0]])  # rho(I - P0 K) = 2
    gains = GainSet(
        K=K, H=synth_H_pseudo(P0), observer=ObserverGain.diagonal(1, 0.9, 0.1)
    )
    structure = StructuredUncertainty(phi1=np.array([[0.05]]), phi2=np.array([[1.0]]))
    assert lmi_search("eq44", P0, structure, gains) is None


def test_unstable_nominal_rejects_random_certificates():
    P0 = np.array([[1.0]])
    K = np.array([[3.0]])
    gains = GainSet(
        K=K, H=synth_H_pseudo(P0), observer=ObserverGain.diagonal(1, 0.9, 0.1)
    )
    structure = StructuredUncertainty(phi1=np.array([[0.05]]), phi2=np.array([[1.0]]))
    for i in range(20):
        rng = np.random.default_rng(1000 + i)
        G = rng.standard_normal((3, 3))
        Q = G @ G.T + 0.1 * np.eye(3)
        cert = LmiCertificate(
            Q11=Q[:1, :1], Q21=Q[1:, :1], Q22=Q[1:, 1:], tau=float(rng.uniform(1e-3, 10))
        )
        assert lmi_verify("eq44", cert, P0, structure, gains) is False


def test_implication_check_requires_valid_certificate():
    P0, gains44, _, structure = small_instance(eta=0.1)
    bad = LmiCertificate(Q11=np.eye(1), Q21=np.zeros((2, 1)), Q22=np.eye(2), tau=1e6)
    assert not lmi_verify("eq44", bad, P0, structure, gains44)
    with pytest.raises(ValueError):
        theorem_implication_check("eq44", structure, gains44, P0, bad, 10, 0)


def test_implication_check_eq44_samples():
    P0, gains44, _, structure = small_instance(eta=0.2)
    cert = lmi_search("eq44", P0, structure, gains44)
    assert cert is not None
    assert theorem_implication_check("eq44", structure, gains44, P0, cert, 100, 5)


def test_implication_check_eq65_and_eq101():
    P0, _, gains65, structure = small_instance(eta=0.2)
    cert = lmi_search("eq65", P0, structure, gains65)
    assert cert is not None
    assert theorem_implication_check("eq65", structure, gains65, P0, cert, 100, 6)
    # the same display certifies the surrogate-driven loop
    cert101 = lmi_search("eq101", P0, structure, gains65)
    assert cert101 is not None
    assert theorem_implication_check("eq101", structure, gains65, P0, cert101, 100, 7)


def test_zero_phi1_reduces_to_nominal_condition():
    P0, gains44, _, _ = small_instance()
    structure0 = StructuredUncertainty(phi1=np.zeros((1, 1)), phi2=np.ones((1, 1)))
    cert = lmi_search("eq44", P0, structure0, gains44)
    assert cert is not None
    assert theorem_implication_check("eq44", structure0, gains44, P0, cert, 20, 8)


def test_schur_equivalence_p2():
    rng = np.random.default_rng(42)
    p, m = 2, 3
    while True:
        P0 = rng.standard_normal((p, m))
        sv = np.linalg.svd(P0, compute_uv=False)
        if sv[p - 1] > 0.2 * sv[0]:
            break
    K = 0.5 * synth_H_pseudo(P0)
    og = ObserverGain.diagonal(p, 0.9, 0.1)
    gains = GainSet(K=K, H=synth_H_pseudo(P0), observer=og)
    structure = StructuredUncertainty(
        phi1=0.08 * rng.standard_normal((p, 2)), phi2=rng.standard_normal((2, m))
    )
    cert = lmi_search("eq44", P0, structure, gains)
    assert cert is not None
    assert theorem_implication_check("eq44", structure, gains, P0, cert, 100, 11)


def test_necessity_unstable_loop_never_converges():
    # when the plain-loop condition fails, the plain law cannot reach
    # small errors on a constant uncertainty
    rng = np.random.default_rng(17)
    plant = TransferPlant(nominal=np.array([[1.0, 0.5], [0.0, 1.0]]))
    gains = GainSet(K=3.0 * synth_H_pseudo(plant.full()))
    rep = check_condition("eq04", plant, gains)
    assert not rep.holds
    config = SimulationConfig(
        plant=plant,
        target=rng.standard_normal(2),
        uncertainty=UncertaintyModel.constant(rng.standard_normal(2)),
        gains=gains,
        law=LearningLaw(mode="p_type"),
        iterations=5000,
    )
    trace = run(config)
    assert trace.err_inf.min() > 1e-6


def test_lmi_search_benchmark_size_outcome_logged():
    # the search is a heuristic; at benchmark size (p = 20) with a small
    # structure it must terminate cleanly and, when it does find a
    # certificate, that certificate must verify.  Success itself is not
    # guaranteed and not asserted.
    from iterlearn.presets import banded_surrogate, reference_gains

    p = 20
    surrogate = banded_surrogate(p)
    gains = reference_gains(surrogate)
    structure = StructuredUncertainty(phi1=0.01 * np.eye(p), phi2=np.eye(p))
    cert = lmi_search("eq101", surrogate, structure, gains)
    print(f"benchmark-size certificate search: found={cert is not None}")
    if cert is not None:
        assert lmi_verify("eq101", cert, surrogate, structure, gains)
        assert theorem_implication_check(
            "eq101", structure, gains, surrogate, cert, 20, 13
        )


def test_certificate_json_round_trip(tmp_path):
    P0, gains44, _, structure = small_instance(eta=0.1)
    cert = lmi_search("eq44", P0, structure, gains44)
    assert cert is not None
    path = tmp_path / "cert.json"
    save_certificate(path, cert)
    back = load_certificate(path)
    assert np.array_equal(back.Q11, cert.Q11)
    assert np.array_equal(back.Q21, cert.Q21)
    assert np.array_equal(back.Q22, cert.Q22)
    assert back.tau == cert.tau
    assert lmi_verify("eq44", back, P0, structure, gains44)
    doc = certificate_to_dict(cert)
    assert certificate_from_dict(doc).tau == cert.tau
    doc["tau"] = math.inf
    path.write_text(json.dumps(doc))
    assert "Infinity" in path.read_text()
    with pytest.raises(ValueError, match="tau must be finite"):
        load_certificate(path)


@pytest.mark.parametrize(
    "field, value",
    [
        ("tau", "1e-3"),
        ("tau", True),
        ("tau", None),
        ("tau", [1.0]),
        ("Q11", [[True]]),
        ("Q21", None),
        ("Q22", [[1.0, 0.0], [0.0]]),
        ("Q22", None),
    ],
)
def test_certificate_reader_rejects_malformed_fields(field, value):
    doc = certificate_to_dict(
        LmiCertificate(Q11=np.eye(1), Q21=np.zeros((2, 1)), Q22=np.eye(2), tau=1.0)
    )
    assert certificate_from_dict(doc).tau == 1.0
    doc[field] = value
    with pytest.raises(ValueError, match=field):
        certificate_from_dict(doc)


@pytest.mark.parametrize("doc", [None, [1.0], "certificate", {"Q11": [[1.0]]}])
def test_certificate_reader_rejects_other_documents(doc):
    with pytest.raises(ValueError, match="certificate file"):
        certificate_from_dict(doc)


def json_dump_bytes(cert):
    """The certificate file as the standard encoder lays it out."""
    buf = io.StringIO()
    json.dump(certificate_to_dict(cert), buf, indent=2, sort_keys=True)
    return (buf.getvalue() + "\n").encode("ascii")


def test_certificate_writer_matches_json_dump(tmp_path):
    rng = np.random.default_rng(8)
    path = tmp_path / "cert.json"
    certs = []
    for p in range(1, 5):
        A = rng.standard_normal((3 * p, 3 * p))
        Q = A @ A.T + np.eye(3 * p)
        tau = float(10 ** rng.uniform(-4, 4))
        certs.append(LmiCertificate(Q11=Q[:p, :p], Q21=Q[p:, :p], Q22=Q[p:, p:], tau=tau))
    # negative zero, the least subnormal, huge and tiny magnitudes and
    # integral floats, in the matrices and in tau
    Q = np.diag([2.0, 1e300, 3.0])
    Q[0, 1] = Q[1, 0] = -0.0
    Q[0, 2] = Q[2, 0] = 5e-324
    Q[1, 2] = Q[2, 1] = 1e-300
    for tau in (1.0, 5e-324, 1e300, 1e-4):
        certs.append(LmiCertificate(Q11=Q[:1, :1], Q21=Q[1:, :1], Q22=Q[1:, 1:], tau=tau))
    for cert in certs:
        save_certificate(path, cert)
        assert path.read_bytes() == json_dump_bytes(cert)
        back = load_certificate(path)
        assert back.assembled().tobytes() == cert.assembled().tobytes()
        assert back.tau == cert.tau


def test_certificate_writer_writes_zeros_as_literals(tmp_path):
    # a time-structured certificate is mostly zeros, which are written as
    # the literals 0.0 and -0.0; the other entries (subnormals, 1e16 and
    # 1e-5 among them) as float.__repr__, byte for byte as json.dump does
    path = tmp_path / "cert.json"
    Q = np.diag([1e16, 3.0, 1.0, 2.0, 1.0, 1e-5])
    Q[0, 2] = Q[2, 0] = -0.0  # in Q11
    Q[3, 0] = Q[0, 3] = -0.0  # in Q21
    Q[4, 5] = Q[5, 4] = -0.0  # in Q22
    Q[1, 4] = Q[4, 1] = 5e-324
    Q[2, 5] = Q[5, 2] = 2.5e-310
    Q[3, 4] = Q[4, 3] = 1e-5
    cert = LmiCertificate(Q11=Q[:2, :2], Q21=Q[2:, :2], Q22=Q[2:, 2:], tau=1e16)
    assert np.signbit(cert.Q22[2, 3]) and np.signbit(cert.Q21[1, 0])
    wide = lmi_search("eq101", *wide_reference_problem(20))
    assert np.count_nonzero(wide.assembled()) < wide.assembled().size // 5
    for c in (cert, wide, LmiCertificate(Q11=Q[:2, :2], Q21=-Q[2:, :2], Q22=Q[2:, 2:], tau=1e-5)):
        save_certificate(path, c)
        assert path.read_bytes() == json_dump_bytes(c)
        back = load_certificate(path)
        assert back.assembled().tobytes() == c.assembled().tobytes()


# ---------------------------------------------------------------------------
# the search against its first form
# ---------------------------------------------------------------------------

def oracle_ingredients(nominal, structure, gains):
    P0 = np.asarray(nominal, dtype=float)
    K = gains.K
    og = gains.observer
    A_lc, Lbar, es = error_dynamics_matrix(og), og.stacked, build_extended(og.p, P0)
    return P0, K, es.p, A_lc, Lbar, es.F, es.Cbar, structure.phi1, structure.phi2


def oracle_assemble_lmi(lmi_id, Q, tau, ingredients, gains):
    """The inequality as first written, kept as the oracle: ``Q M0``
    expanded by hand into products of the blocks ``Q = (Q11, Q21, Q22)``,
    one branch per display, in blocks of sizes ``[p, 2p, p, 2p, r, q]``."""
    P0, K, p, A_lc, Lbar, F, Cbar, phi1, phi2 = ingredients
    Q11, Q21, Q22 = Q
    q = phi1.shape[1]
    r = phi2.shape[0]
    edges = np.cumsum([0, p, 2 * p, p, 2 * p, r, q])
    G = np.zeros((edges[-1], edges[-1]))

    def put(i, j, blk):
        rows, cols = slice(edges[i], edges[i + 1]), slice(edges[j], edges[j + 1])
        G[rows, cols] = blk
        if i != j:
            G[cols, rows] = G[rows, cols].T

    loop = np.eye(p) - P0 @ K
    put(0, 0, -Q11)
    put(1, 0, -Q21)
    put(1, 1, -Q22)
    put(2, 2, -Q11)
    put(3, 2, -Q21)
    put(3, 3, -Q22)
    put(4, 4, -tau * np.eye(r))
    put(5, 5, -tau * np.eye(q))
    put(2, 0, Q11 @ loop)
    put(3, 0, Q21 @ loop)
    put(4, 0, tau * phi2 @ K)
    if lmi_id == "eq44":
        HF = gains.H @ F
        put(2, 1, Q21.T @ A_lc - Q11 @ P0 @ HF)
        put(3, 1, Q22 @ A_lc - Q21 @ P0 @ HF)
        put(4, 1, tau * phi2 @ HF)
        put(5, 2, phi1.T @ (Cbar @ Q21 - Q11))
        put(5, 3, phi1.T @ (Cbar @ Q22 - Q21.T))
    else:  # eq65 and eq101 share one display around their respective maps
        HbF = gains.Hbar @ F
        put(2, 1, Q11 @ HbF + Q21.T @ A_lc)
        put(3, 1, Q21 @ HbF + Q22 @ A_lc)
        put(5, 2, phi1.T @ (-Q11 - Lbar.T @ Q21))
        put(5, 3, phi1.T @ (-Q21.T - Lbar.T @ Q22))
    return G


def scipy_lyapunov_seed(M0, p):
    """The search's seed as first written: scipy's discrete Lyapunov solver,
    symmetrised and scaled by its largest singular value."""
    if block_spectral_radius(M0, p)[0] >= 1.0:
        return None
    Qfull = solve_discrete_lyapunov(M0.T, np.eye(len(M0)))
    Qfull = 0.5 * (Qfull + Qfull.T)
    if np.linalg.eigvalsh(Qfull).min() <= 0:
        return None
    return Qfull / induced_norm(Qfull, "two")


def reference_lmi_search(
    lmi_id, nominal, structure, gains, budget=200, seed=scipy_lyapunov_seed
):
    """The search as first written, kept as the oracle: a fresh validated
    certificate, a fresh hand-expanded assembly and a full symmetric
    eigenvalue solve for every candidate, in the same grid order, from
    ``seed(M0, p)`` of the hand-built loop ``M0``."""
    P0 = np.asarray(nominal, dtype=float)
    M0 = oracle_loop_matrix(ORACLE_IMPLIED[lmi_id], TransferPlant(nominal=P0), gains, P0)
    p = gains.observer.p
    Qfull = seed(M0, p)
    if Qfull is None:
        return None

    ingredients = oracle_ingredients(nominal, structure, gains)
    taus = np.logspace(-4, 4, 17)
    calls = 0
    for scale in (1.0, 0.5, 2.0, 0.25, 4.0):
        D = np.diag(np.concatenate([np.full(p, scale), np.ones(2 * p)]))
        Qs = D @ Qfull @ D
        cert_blocks = (Qs[:p, :p], Qs[p:, :p], Qs[p:, p:])
        for tau in taus:
            if calls >= budget:
                return None
            calls += 1
            cert = LmiCertificate(
                Q11=cert_blocks[0], Q21=cert_blocks[1], Q22=cert_blocks[2], tau=float(tau)
            )
            G = oracle_assemble_lmi(
                lmi_id, (cert.Q11, cert.Q21, cert.Q22), cert.tau, ingredients, gains
            )
            if eigvalsh_verdict(G):
                return cert
    return None


def eigvalsh_verdict(G):
    """``lmi_verify``'s test by a full eigenvalue solve."""
    tol = 1e-9 * induced_norm(G, "infinity")
    return bool(np.linalg.eigvalsh(0.5 * (G + G.T)).max() < -tol)


def cholesky_verdict(G):
    """``lmi_verify``'s test by one dense Cholesky factorisation."""
    tol = 1e-9 * induced_norm(G, "infinity")
    return cholesky_negative_definite(G, tol, np.empty(G.shape))


def random_lmi_problem(rng, lmi_id, p, identity_phi2):
    """A random well-posed instance of ``lmi_id`` with ``p`` outputs."""
    m = p + int(rng.integers(0, 3))
    while True:
        P0 = rng.standard_normal((p, m))
        sv = np.linalg.svd(P0, compute_uv=False)
        if sv[p - 1] > 1e-3 * sv[0]:
            break
    K = rng.uniform(0.3, 0.7) * synth_H_pseudo(P0)
    observer = ObserverGain.diagonal(p, rng.uniform(0.6, 1.1), rng.uniform(0.05, 0.3))
    if lmi_id == "eq44":
        gains = GainSet(K=K, H=synth_H_pseudo(P0), observer=observer)
    else:
        gains = GainSet(K=K, Hbar=synth_Hbar(P0, K), observer=observer)
    phi1 = 10 ** rng.uniform(-3, 0) * rng.standard_normal((p, int(rng.integers(1, 4))))
    if identity_phi2:
        phi2 = np.eye(m)
    else:
        phi2 = rng.standard_normal((int(rng.integers(1, 4)), m))
    return P0, StructuredUncertainty(phi1=phi1, phi2=phi2), gains


def seed_of(M0, p):
    """``_lyapunov_seed`` of the loop ``M0``, on its stack of time steps."""
    return _lyapunov_seed(M0, p, *_steps(p, M0))


def dense_seed(M0, p):
    """``_lyapunov_seed``, scattered from its stack of time steps into a matrix."""
    X = seed_of(M0, p)
    return None if X is None else scatter_steps(X)


def grid_of(lmi_id, nominal, structure, gains):
    """Every candidate of the search, its ``Q`` scattered from its stack,
    with the ``G(tau)`` its blocks stand for."""
    loop = _robust_loop(lmi_id, nominal, structure, gains)
    Xs = seed_of(loop[0], gains.observer.p)
    assert Xs is not None
    grid = _lmi_grid(Xs, *_steps(gains.observer.p, loop[0]), loop, structure)
    return [(scatter_steps(Qs), tau, inequality_of(blocks, tau)) for Qs, tau, blocks, _ in grid]


def assert_same_certificate_as_scipy_seeded(cert, lmi_id, problem, budget=200):
    """The reference seeded by scipy's solver reaches the outcome of
    ``cert``: None, or the same ``tau`` and a ``Q`` within 1e-12 relative,
    so at the same rescaling (another one moves ``Q11`` by 2x or more)."""
    ref = reference_lmi_search(lmi_id, *problem, budget=budget)
    assert (ref is None) == (cert is None)
    if cert is not None:
        assert ref.tau == cert.tau
        Q, Q_ref = cert.assembled(), ref.assembled()
        assert np.abs(Q - Q_ref).max() <= 1e-12 * np.abs(Q_ref).max()


def test_lmi_search_matches_reference_on_random_problems():
    rng = np.random.default_rng(20)
    found = past_first_scale = 0
    for i in range(10):
        for lmi_id in LMI_IDS:
            problem = random_lmi_problem(rng, lmi_id, i % 5 + 1, identity_phi2=i % 2 == 0)
            ref = reference_lmi_search(lmi_id, *problem, seed=dense_seed)
            cert = lmi_search(lmi_id, *problem)
            assert_same_certificate_as_scipy_seeded(cert, lmi_id, problem)
            if ref is None:
                assert cert is None
                continue
            assert cert is not None and cert.tau == ref.tau
            assert cert.assembled().tobytes() == ref.assembled().tobytes()
            found += 1
            past_first_scale += (
                reference_lmi_search(lmi_id, *problem, budget=17, seed=dense_seed) is None
            )
    # both outcomes occur, and some certificates lie past the first scale's 17 candidates
    assert 0 < past_first_scale < found < 30


def test_lmi_grid_rewrites_tau_like_a_fresh_assembly():
    # phi2 = I makes tau (phi2 E) and (tau phi2) E the same numbers, so the
    # in-place rewrite is exact; any other phi2 rounds the two products
    # differently by a few ulps
    rng = np.random.default_rng(65)
    eps = np.finfo(float).eps
    for lmi_id in LMI_IDS:
        for identity_phi2 in (True, False):
            problem = random_lmi_problem(rng, lmi_id, 3, identity_phi2)
            loop = _robust_loop(lmi_id, *problem)
            grid = grid_of(lmi_id, *problem)
            assert [tau for _, tau, _ in grid[:17]] == list(np.logspace(-4, 4, 17))
            assert len(grid) == 85
            for Q, tau, G in grid:
                fresh = _assemble_lmi(Q, tau, loop, problem[1])
                assert np.array_equal(G, G.T)
                if identity_phi2:
                    assert np.array_equal(G, fresh)
                else:
                    assert np.abs(G - fresh).max() <= 4 * eps * np.abs(fresh).max()


def wide_reference_problem(horizon):
    # the eq101 search of `iterlearn check` on the reference experiment: the
    # surrogate and the gains do not depend on the draw, so every draw
    # (draw 5 included) poses this problem
    surrogate = presets.banded_surrogate(horizon)
    gains = presets.reference_gains(surrogate)
    I = np.eye(horizon)
    return surrogate, StructuredUncertainty(phi1=0.05 * I, phi2=I), gains


def random_decoupled_loop(rng, p, b):
    """A loop that couples no two time steps, with a different stable
    ``b x b`` step at each ``t`` (radius up to 0.95)."""
    steps = rng.standard_normal((p, b, b))
    rho = np.abs(np.linalg.eigvals(steps)).max(axis=1)
    steps *= (rng.uniform(0.2, 0.95, p) / rho)[:, None, None]
    return scatter_steps(steps)


def seed_problems():
    """``(M0, p)`` of random search problems drawn as the search tests draw
    them, of the wide reference problem at T = 20 and T = 100, and of
    random loops that couple no two time steps, each also with one tiny
    entry that couples two (so it takes the dense doubling)."""
    problems = []
    for seed, count in ((20, 10), (12, 30), (44, 60)):
        rng = np.random.default_rng(seed)
        problems += [
            (lmi_id, random_lmi_problem(rng, lmi_id, i % 5 + 1, identity_phi2=i % 2 == 0))
            for i in range(count)
            for lmi_id in LMI_IDS
        ]
    problems += [("eq101", wide_reference_problem(20)), ("eq101", wide_reference_problem(100))]
    loops = [(_robust_loop(lmi_id, *pr)[0], pr[2].observer.p) for lmi_id, pr in problems]
    rng = np.random.default_rng(31)
    for p in (2, 5, 100):
        for b in (1, 3):
            M0 = random_decoupled_loop(rng, p, b)
            coupled = M0.copy()
            coupled[0, p - 1] = 1e-300
            assert time_steps(M0, p)[1] == "decoupled" and time_steps(coupled, p)[1] is None
            loops += [(M0, p), (coupled, p)]
    return loops


def test_lyapunov_seed_matches_scipy_and_solves_the_stein_equation():
    for M0, p in seed_problems():
        Q, ref = dense_seed(M0, p), scipy_lyapunov_seed(M0, p)
        assert Q is not None and ref is not None
        assert np.array_equal(Q, Q.T)
        assert np.abs(Q - ref).max() <= 1e-12 * np.abs(ref).max()
        # Q = X / |X|_2 with M0^T X M0 - X + I = 0, so Q - M0^T Q M0 = c I
        # with c = 1 / |X|_2 in (0, 1], and |Q|_2 = 1
        R = Q - M0.T @ Q @ M0
        c = float(np.mean(np.diag(R)))
        assert 0 < c <= 1
        assert np.linalg.norm(R - c * np.eye(len(Q)), 2) <= 1e-13
        assert abs(np.linalg.norm(Q, 2) - 1) <= 1e-13


def test_lyapunov_seed_rejects_unstable_and_overflowing_loops_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert seed_of(np.diag([0.5, 1.0]), 1) is None  # rho = 1
        assert seed_of(np.diag([0.5, -1.5]), 1) is None
        # stable, with transients past the float range: |M0|_F^2 overflows
        # at once, or the sum does while the powers still decay
        assert seed_of(np.array([[0.5, 1e200], [0.0, 0.5]]), 1) is None
        assert seed_of(np.array([[0.5, 1e154], [0.0, 0.5]]), 1) is None
        # the same as each entry times I_3, summed per time step, and the
        # radius 1 or 1.5 in one step among stable ones
        for M0 in (
            np.kron(np.diag([0.5, 1.0]), np.eye(3)),
            np.kron(np.diag([0.5, -1.5]), np.eye(3)),
            np.kron([[0.5, 1e200], [0.0, 0.5]], np.eye(3)),
            np.kron([[0.5, 1e154], [0.0, 0.5]], np.eye(3)),
            scatter_steps(np.array([[[0.5]], [[0.25]], [[1.0]]])),
            scatter_steps(np.array([[[0.5]], [[-1.5]], [[0.25]]])),
        ):
            assert time_steps(M0, 3)[1] == "decoupled"
            assert seed_of(M0, 3) is None


def test_lyapunov_seed_converges_within_the_cap_near_the_stability_edge():
    # a rotation scaled to rho = 1 - 1e-6 needs about 25 doublings; its
    # series is I / (1 - rho^2), so the seed is I
    rho, t = 1 - 1e-6, 0.3
    M0 = rho * np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    Q = dense_seed(np.kron(np.eye(2), M0), 2)
    assert Q is not None
    assert np.abs(Q - np.eye(4)).max() <= 1e-12


def test_both_seed_paths_converge_within_the_cap_near_the_stability_edge():
    # the rotation of the test above on each path: as two coupled 2 x 2
    # blocks (dense doubling), and as each entry times I_p (p steps)
    rho, t = 1 - 1e-6, 0.3
    M0 = rho * np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    assert time_steps(np.kron(np.eye(2), M0), 2)[1] is None
    for p in (2, 5):
        M = np.kron(M0, np.eye(p))
        assert time_steps(M, p)[1] == "decoupled"
        Q = dense_seed(M, p)
        assert Q is not None
        assert np.abs(Q - np.eye(2 * p)).max() <= 1e-12


def test_per_step_seed_rejects_a_loop_with_one_indefinite_step():
    # a Jordan-like step with a 1e8 shear: its sum, near 1e49, rounds to an
    # indefinite matrix, so the whole loop is rejected, as on the dense path
    bad = 0.5 * np.eye(4) + 1e8 * np.eye(4, k=1)
    M0 = scatter_steps(np.stack([0.5 * np.eye(4), bad]))
    assert time_steps(M0, 2)[1] == "decoupled"
    assert seed_of(M0, 2) is None and seed_of(M0, 1) is None
    assert seed_of(scatter_steps(np.stack([0.5 * np.eye(4)] * 2)), 2) is not None


def one_step(p, *Ms):
    """``stability._steps`` as if every loop coupled time steps: each
    matrix whole, as one step."""
    return tuple(M[None] for M in Ms)


def test_per_step_seed_reaches_the_dense_seeds_certificate_on_the_wide_problem(monkeypatch):
    # with p = 1 no time structure is read, so the doubling runs on one
    # step, the whole loop; with every matrix one step, so does the search
    for horizon in (20, 100):
        problem = wide_reference_problem(horizon)
        M0 = _robust_loop("eq101", *problem)[0]
        assert time_steps(M0, horizon)[1] == "decoupled"
        Q, dense = dense_seed(M0, horizon), seed_of(M0, 1)
        assert dense.shape == (1, 3 * horizon, 3 * horizon)
        assert np.abs(Q - dense[0]).max() <= 1e-12 * np.abs(dense).max()
        cert = lmi_search("eq101", *problem)
        with monkeypatch.context() as m:
            m.setattr(stability, "_steps", one_step)
            ref = lmi_search("eq101", *problem)
        assert cert is not None and ref is not None
        assert cert.tau == ref.tau
        # within 1e-12, so at the same rescaling (another moves Q11 by 2x)
        Q, Q_ref = cert.assembled(), ref.assembled()
        assert np.abs(Q - Q_ref).max() <= 1e-12 * np.abs(Q_ref).max()


def test_lyapunov_seed_rejects_the_transient_bad_model_free_loops():
    # the eq102 loops of draws 0 and 21 at T = 100 pass the radius gate
    # (rho near 0.88), but their powers grow to about 1e17 first: both seeds
    # sum a series that rounds to an indefinite matrix
    surrogate = presets.banded_surrogate(100)
    gains = presets.reference_gains(surrogate)
    for draw in (0, 21):
        M = loop_matrix("eq102", presets.reference_plant(draw, 100), gains, surrogate)
        assert block_spectral_radius(M, 100)[0] < 1
        assert seed_of(M, 100) is None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # scipy warns that it perturbed its input
            assert scipy_lyapunov_seed(M, 100) is None


def test_lmi_grid_rejects_an_asymmetric_seed():
    # the grid checks symmetry on the seed alone: every G it assembles
    # from a symmetric seed is exactly symmetric
    problem = random_lmi_problem(np.random.default_rng(3), "eq101", 2, identity_phi2=True)
    loop = _robust_loop("eq101", *problem)
    Xs = seed_of(loop[0], 2)
    Xs[0, 0, 1] = np.nextafter(Xs[0, 0, 1], np.inf)
    with pytest.raises(ValueError, match="not symmetric"):
        next(_lmi_grid(Xs, *_steps(2, loop[0]), loop, problem[1]))


def test_lyapunov_seed_imports_no_scipy():
    src = str(Path(stability.__file__).parents[1])
    script = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "import numpy as np\n"
        "from iterlearn.stability import _lyapunov_seed, _steps\n"
        "seed = lambda M0, p: _lyapunov_seed(M0, p, *_steps(p, M0))\n"
        "print(seed(np.diag([0.5, 0.25, 0.125]), 1).shape,"
        " seed(np.kron(np.diag([0.5, 0.25]), np.eye(2)), 2).shape,"
        " sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, check=True
    )
    assert done.stdout == "(1, 3, 3) (2, 2, 2) []\n"


def test_screen_rejects_only_what_the_full_test_rejects():
    # the screen decides G(tau) < 0 with no tolerance, so a candidate it
    # rejects must fail the full test at 1e-9 ||G(tau)||_inf
    rng = np.random.default_rng(12)
    problems = [
        (lmi_id, random_lmi_problem(rng, lmi_id, i % 5 + 1, identity_phi2=i % 2 == 0))
        for i in range(30)
        for lmi_id in LMI_IDS
    ]
    problems += [("eq101", wide_reference_problem(20)), ("eq101", wide_reference_problem(100))]
    counts = {(s, v): 0 for s in (False, True) for v in (False, True)}
    for lmi_id, problem in problems:
        loop = _robust_loop(lmi_id, *problem)
        Xs = seed_of(loop[0], problem[2].observer.p)
        assert Xs is not None
        p = problem[2].observer.p
        for _, tau, blocks, screened in _lmi_grid(Xs, *_steps(p, loop[0]), loop, problem[1]):
            verdict = cholesky_verdict(inequality_of(blocks, tau))
            assert screened or not verdict
            counts[screened, verdict] += 1
    assert sum(counts.values()) == len(problems) * 85
    assert counts[False, False] > 0 and counts[True, True] > 0


def test_cholesky_and_eigvalsh_agree_on_every_reference_grid_point():
    problem = wide_reference_problem(20)
    verdicts = []
    for _, _, G in grid_of("eq101", *problem):
        verdicts.append(cholesky_verdict(G))
        assert verdicts[-1] == eigvalsh_verdict(G)
    assert len(verdicts) == 85 and 0 < sum(verdicts) < 85


# ---------------------------------------------------------------------------
# the Schur term per time step, and the certificate's own check
# ---------------------------------------------------------------------------

def random_decoupled_problem(rng, p, b):
    """An inequality around a loop that couples no two of its ``p`` time
    steps (``b`` signals, a different step at each ``t``), through a dense
    channel ``(D, E)`` and a random structure, with the loop's seed."""
    M0 = random_decoupled_loop(rng, p, b)
    n = b * p
    loop = (M0, rng.standard_normal((n, p)), rng.standard_normal((p, n)))
    phi1 = 10 ** rng.uniform(-3, -1) * rng.standard_normal((p, int(rng.integers(1, 4))))
    phi2 = rng.standard_normal((int(rng.integers(1, 4)), p))
    return loop, StructuredUncertainty(phi1=phi1, phi2=phi2), seed_of(M0, p)


def decoupled_problems(bs=(1, 3)):
    rng = np.random.default_rng(31)
    return [
        (p, random_decoupled_problem(rng, p, b))
        for _ in range(5)
        for p in (2, 5, 100)
        for b in bs
    ]


def lmi_blocks(Qs, M0s, loop, structure):
    """``_lmi_blocks`` with the loop's ``_structure_steps`` formed for it."""
    return _lmi_blocks(Qs, M0s, *_structure_steps(loop, structure, len(Qs)))


def batched_factorisations(monkeypatch):
    """The shapes ``np.linalg.cholesky`` is called on: within a search, a
    stack of steps only by the per-step Schur term."""
    shapes, cholesky = [], np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: shapes.append(a.shape) or cholesky(a))
    return shapes


def oracle_schur_term(blocks, tol):
    """The Schur term at ``tau = 1`` by one dense solve on the inequality
    the blocks stand for."""
    G = inequality_of(blocks, 1.0)
    k = 2 * blocks.Q.shape[0] * blocks.Q.shape[1]
    return G[k:, :k] @ np.linalg.solve(-G[:k, :k] - tol * np.eye(k), G[k:, :k].T)


def test_per_step_schur_term_matches_the_dense_factorisation(monkeypatch):
    # the same blocks as one time step (each stack scattered whole) take
    # one Cholesky of the whole leading block; both match a dense solve,
    # with and without a tolerance
    shapes = batched_factorisations(monkeypatch)
    for p, (loop, structure, Xs) in decoupled_problems():
        (M0s,) = _steps(p, loop[0])
        blocks = lmi_blocks(Xs, M0s, loop, structure)
        Q = scatter_steps(Xs)
        whole = lmi_blocks(Q[None], loop[0][None], loop, structure)
        k = 2 * len(Q)
        for tol in (0.0, _tolerance(blocks, 1.0)):
            C = _schur_term(blocks, tol)
            dense = _schur_term(whole, tol)
            assert shapes == [(p, k // p, k // p), (1, k, k)]
            shapes.clear()
            assert np.abs(C - dense).max() <= 1e-12 * np.abs(dense).max()
            oracle = oracle_schur_term(blocks, tol)
            assert np.abs(C - oracle).max() <= 1e-12 * np.abs(oracle).max()
        # time step 1 made positive definite: no Schur term either way
        bad = blocks._replace(Q=Xs.copy(), QM0=blocks.QM0.copy())
        bad.Q[1] *= -1
        bad.QM0[1] *= -1
        assert _schur_term(bad, 0.0) is None
        bad_whole = lmi_blocks(scatter_steps(bad.Q)[None], loop[0][None], loop, structure)
        bad_whole.QM0[0] = scatter_steps(bad.QM0)
        assert _schur_term(bad_whole, 0.0) is None
        shapes.clear()
        # one entry of 1e-300 couples time steps 0 and 1: each matrix is one step
        coupled = Q.copy()
        coupled[0, 1] = coupled[1, 0] = 1e-300
        C_coupled = _schur_term(lmi_blocks(*_steps(p, coupled, loop[0]), loop, structure), 0.0)
        assert shapes == [(1, k, k)]
        C = _schur_term(blocks, 0.0)
        assert np.abs(C_coupled - C).max() <= 1e-12 * np.abs(C).max()
        shapes.clear()


def test_wide_search_forms_the_schur_term_per_step(monkeypatch):
    # the Schur term is formed per step; the search with every matrix as
    # one time step (``_steps`` replaced), from the same seed, returns the
    # same certificate bit for bit
    for horizon in (20, 100):
        problem = wide_reference_problem(horizon)
        with monkeypatch.context() as m:
            shapes = batched_factorisations(m)
            cert = lmi_search("eq101", *problem)
        batched = [shape for shape in shapes if len(shape) == 3]
        assert batched and set(batched) == {(horizon, 6, 6)}
        seed = seed_of(_robust_loop("eq101", *problem)[0], horizon)
        assert seed.shape == (horizon, 3, 3)
        with monkeypatch.context() as m:
            m.setattr(stability, "_steps", one_step)
            m.setattr(stability, "_lyapunov_seed", lambda M0, p, M0s: scatter_steps(seed)[None])
            shapes = batched_factorisations(m)
            ref = lmi_search("eq101", *problem)
        assert {shape for shape in shapes if len(shape) == 3} == {(1, 6 * horizon, 6 * horizon)}
        assert cert is not None and ref is not None and cert.tau == ref.tau
        assert cert.assembled().tobytes() == ref.assembled().tobytes()
        if horizon == 100:
            # tau = 1e-4 at the second rescaling, 0.5: a Schur term per
            # rescaling for the screen, and one at the full test's tolerance
            seed = scatter_steps(seed)
            assert cert.tau == 1e-4 and len(batched) == 3
            assert np.array_equal(cert.Q11, 0.25 * seed[:horizon, :horizon])
            assert np.array_equal(cert.Q22, seed[horizon:, horizon:])


def test_the_structure_products_are_formed_once_per_search_and_verify(monkeypatch):
    # phi2 E and phi1^T D^T do not depend on Q: the search at T = 100
    # visits two rescalings (it finds its certificate at the second), and
    # it and a verification each form them once
    from collections import Counter

    calls = Counter()
    for name in ("_structure_steps", "_lmi_blocks"):
        real = getattr(stability, name)
        monkeypatch.setattr(
            stability, name, lambda *a, real=real, name=name: calls.update([name]) or real(*a)
        )
    problem = wide_reference_problem(100)
    cert = lmi_search("eq101", *problem)
    assert calls == {"_structure_steps": 1, "_lmi_blocks": 2}
    calls.clear()
    assert lmi_verify("eq101", cert, *problem)
    assert calls == {"_structure_steps": 1, "_lmi_blocks": 1}


def test_verify_of_a_certificate_that_couples_two_steps_agrees_with_the_dense_oracle(
    monkeypatch,
):
    # one symmetric entry of 1e-300 couples time steps 0 and 1 of the wide
    # certificate: lmi_verify then reads Q and M0 as one step each, and its
    # verdict is that of one dense Cholesky of the inequality, at the
    # certificate's tau and at the largest of the grid
    shapes = batched_factorisations(monkeypatch)
    verdicts = []
    for h in (20, 100):
        problem = wide_reference_problem(h)
        loop = _robust_loop("eq101", *problem)
        found = lmi_search("eq101", *problem)
        Q = found.assembled()
        Q[0, 1] = Q[1, 0] = 1e-300
        assert time_steps(Q, h)[1] is None
        for tau in (found.tau, 1e4):
            cert = LmiCertificate(Q11=Q[:h, :h], Q21=Q[h:, :h], Q22=Q[h:, h:], tau=tau)
            assert cert.Q11[0, 1] == cert.Q11[1, 0] == 1e-300
            shapes.clear()
            verdicts.append(lmi_verify("eq101", cert, *problem))
            assert shapes[0] == (1, 6 * h, 6 * h)
            assert verdicts[-1] == cholesky_verdict(_assemble_lmi(Q, tau, loop, problem[1]))
    assert verdicts == [True, False, True, False]


def test_screen_rejects_only_what_the_full_test_rejects_on_decoupled_problems():
    # as on the search's random problems, with a leading block that couples
    # no two time steps (so a per-step Schur term) at every rescaling
    counts = {(s, v): 0 for s in (False, True) for v in (False, True)}
    problems = decoupled_problems(bs=(3,))
    for p, (loop, structure, Xs) in problems:
        for _, tau, blocks, screened in _lmi_grid(Xs, *_steps(p, loop[0]), loop, structure):
            G = inequality_of(blocks, tau)
            assert time_steps(G[: 6 * p, : 6 * p], p)[1] == "decoupled"
            verdict = cholesky_verdict(G)
            assert screened or not verdict
            counts[screened, verdict] += 1
    assert sum(counts.values()) == len(problems) * 85
    assert counts[False, False] > 0 and counts[True, True] > 0


def search_problems():
    """The 413 search problems the doubling seed was first compared on: the
    random problems of rng seeds 20, 12, 44, 41 and 43, drawn as the search
    tests draw them, the six of rng seed 65 (``p = 3``, each kind of
    ``phi2``) and the wide problem at T = 20 and 100.  The random problems'
    leading blocks couple time steps; the wide problems' couple none."""
    problems = []
    for seed, count in ((20, 10), (12, 30), (44, 60), (41, 15), (43, 20)):
        rng = np.random.default_rng(seed)
        problems += [
            (lmi_id, random_lmi_problem(rng, lmi_id, i % 5 + 1, identity_phi2=i % 2 == 0))
            for i in range(count)
            for lmi_id in LMI_IDS
        ]
    rng = np.random.default_rng(65)
    problems += [
        (lmi_id, random_lmi_problem(rng, lmi_id, 3, identity_phi2))
        for lmi_id in LMI_IDS
        for identity_phi2 in (True, False)
    ]
    return problems + [("eq101", wide_reference_problem(20)), ("eq101", wide_reference_problem(100))]


def split_against_oracle(Xs, loop, structure, p):
    """Each candidate of the grid as ``(Q, tau, verdict)``, with the verdict
    of the split acceptor at ``1e-9 ||G||_inf`` asserted against one dense
    Cholesky of the inequality as first assembled (``(tau phi2) E``, not
    ``tau (phi2 E)``).  They may differ only where the largest eigenvalue
    of ``G`` (the smallest of ``-G``) lies within 1e-12 relative of
    ``-tol``; such a candidate's verdict is None."""
    candidates = []
    for Qs, tau, blocks, screened in _lmi_grid(Xs, *_steps(p, loop[0]), loop, structure):
        Q = scatter_steps(Qs)
        G = _assemble_lmi(Q, tau, loop, structure)
        tol, split_tol = 1e-9 * induced_norm(G, "infinity"), _tolerance(blocks, tau)
        assert abs(split_tol - tol) <= 1e-13 * tol
        verdict = _accepts(blocks, tau, split_tol)
        assert screened or not verdict
        if verdict != cholesky_negative_definite(G, tol, np.empty(G.shape)):
            assert abs(np.linalg.eigvalsh(G).max() + tol) <= 1e-12 * tol
            verdict = None
        candidates.append((Q, tau, verdict))
    return candidates


def test_split_acceptor_agrees_with_the_dense_oracle():
    # every candidate of the 413 search problems (the random ones coupled,
    # the wide ones decoupled) and of random decoupled problems; the search
    # returns the first candidate the dense oracle accepts
    found = 0
    for lmi_id, problem in search_problems():
        loop = _robust_loop(lmi_id, *problem)
        Xs = seed_of(loop[0], problem[2].observer.p)
        cert = lmi_search(lmi_id, *problem)
        if Xs is None:
            assert cert is None
            continue
        verdicts = split_against_oracle(Xs, loop, problem[1], problem[2].observer.p)
        decided = list(itertools.takewhile(lambda c: c[2] is not None, verdicts))
        accepted = [(Q, tau) for Q, tau, verdict in decided if verdict]
        if accepted:
            Q, tau = accepted[0]
            assert cert.tau == tau and cert.assembled().tobytes() == Q.tobytes()
            found += 1
        elif len(decided) == len(verdicts):
            assert cert is None
    assert 200 < found < 413
    verdicts = [  # the wide problem at T = 100 stands for the large ones
        verdict
        for p, (loop, structure, Xs) in decoupled_problems(bs=(3,))
        if p < 100
        for _, _, verdict in split_against_oracle(Xs, loop, structure, p)
    ]
    assert 0 < sum(map(bool, verdicts)) < len(verdicts) and None not in verdicts


def certificate_accepts(Q):
    """Whether ``LmiCertificate`` takes ``Q`` as positive definite."""
    p = len(Q) // 3
    try:
        LmiCertificate(Q11=Q[:p, :p], Q21=Q[p:, :p], Q22=Q[p:, p:], tau=1.0)
    except ValueError as exc:
        assert "positive definite" in str(exc)
        return False
    return True


def test_certificate_cholesky_check_agrees_with_eigvalsh():
    # every certificate the random problems and the wide problem give, each
    # also shifted to a smallest eigenvalue of +-1e-8 relative, and random
    # Q with that smallest eigenvalue; eigvalsh stays the oracle
    rng = np.random.default_rng(20)
    problems = [
        (lmi_id, random_lmi_problem(rng, lmi_id, i % 5 + 1, identity_phi2=i % 2 == 0))
        for i in range(10)
        for lmi_id in LMI_IDS
    ]
    problems += [("eq101", wide_reference_problem(20)), ("eq101", wide_reference_problem(100))]
    certs = [lmi_search(lmi_id, *problem) for lmi_id, problem in problems]
    Qs = [cert.assembled() for cert in certs if cert is not None]
    assert len(Qs) > 10
    for p in range(1, 11):
        V = np.linalg.qr(rng.standard_normal((3 * p, 3 * p)))[0]
        w = np.logspace(0, -6, 3 * p)
        Q = (V * w) @ V.T
        Qs.append(0.5 * (Q + Q.T))
    verdicts = []
    for Q in Qs:
        w = np.linalg.eigvalsh(Q)
        for sign in (0, 1, -1):
            S = Q - (w[0] - sign * 1e-8 * w[-1]) * np.eye(len(Q)) if sign else Q
            verdicts.append(certificate_accepts(S))
            assert verdicts[-1] == (np.linalg.eigvalsh(S).min() > 0)
            assert verdicts[-1] == (sign >= 0)
    assert len(verdicts) == 3 * len(Qs)


def test_assembly_matches_hand_expanded_oracle_on_every_grid_point():
    # the (M0, D, E) display sums the hand expansion's products in another
    # order, so it may differ by rounding but never in a verdict
    rng = np.random.default_rng(44)
    problems = [
        (lmi_id, random_lmi_problem(rng, lmi_id, i % 5 + 1, identity_phi2=i % 2 == 0))
        for i in range(60)
        for lmi_id in LMI_IDS
    ]
    problems.append(("eq101", wide_reference_problem(20)))
    verdicts = []
    for lmi_id, problem in problems:
        p = problem[2].observer.p
        ingredients = oracle_ingredients(*problem)
        for Q, tau, G in grid_of(lmi_id, *problem):
            blocks = (Q[:p, :p], Q[p:, :p], Q[p:, p:])
            oracle = oracle_assemble_lmi(lmi_id, blocks, tau, ingredients, problem[2])
            assert np.abs(G - oracle).max() <= 1e-13 * np.abs(G).max()
            verdicts.append(cholesky_verdict(G))
            assert verdicts[-1] == cholesky_verdict(oracle)
    assert len(verdicts) == 181 * 85 and 0 < sum(verdicts) < len(verdicts)


def test_loop_at_a_model_error_is_nominal_plus_channel():
    # each inequality's M0 + D delta E, at any structured model error delta,
    # is the loop of the condition it certifies, as first written
    rng = np.random.default_rng(41)
    for i in range(15):
        for lmi_id in LMI_IDS:
            P0, structure, gains = random_lmi_problem(rng, lmi_id, i % 5 + 1, i % 2 == 0)
            loop = _robust_loop(lmi_id, P0, structure, gains)
            for child in np.random.SeedSequence(i).spawn(4):
                delta = sample_structured_delta(structure, child)
                plant = TransferPlant(nominal=P0, delta=delta)
                oracle = oracle_loop_matrix(ORACLE_IMPLIED[lmi_id], plant, gains, P0)
                M = _at_error(loop, delta)
                assert np.abs(M - oracle).max() <= 1e-13 * np.abs(oracle).max()


def parent_at_error(loop, delta):
    """``M0 + D delta E`` with the whole channel ``D`` multiplied, as it was
    before its ``-I`` top block was subtracted instead."""
    M0, D, E = loop
    M, p = M0.copy(), D.shape[1]
    for j in range(0, E.shape[1], p):
        if E[:, j : j + p].any():
            M[:, j : j + p] += D @ (delta @ E[:, j : j + p])
    return M


def test_loop_at_a_model_error_keeps_the_dense_channel_bits():
    # subtracting delta E_j under the -I block, and skipping P0 K for an
    # all-zero P0, leave every finite loop bit for bit as it was
    rng = np.random.default_rng(43)
    for i in range(20):
        for lmi_id in LMI_IDS:
            P0, structure, gains = random_lmi_problem(rng, lmi_id, i % 5 + 1, i % 2 == 0)
            loop = _robust_loop(lmi_id, P0, structure, gains)
            delta = sample_structured_delta(structure, np.random.SeedSequence(i))
            assert _at_error(loop, delta).tobytes() == parent_at_error(loop, delta).tobytes()
        plant = random_plant(rng, with_delta=True)
        with_H = random_gainset(rng, plant, with_Hbar=False)
        with_Hbar = random_gainset(rng, plant, with_H=False)
        model_free = TransferPlant(nominal=np.zeros(plant.shape), delta=plant.full())
        for P in (plant, model_free):
            I = np.eye(P.shape[0])
            learning = (I - P.nominal @ with_H.K, -I, with_H.K)
            expected = parent_at_error(learning, P.delta)
            assert loop_matrix("eq04", P, with_H).tobytes() == expected.tobytes()
            for cid, gains in (("eq41", with_H), ("eq62", with_Hbar)):
                loop = _robust_form(_CATALOG[cid][0], P.nominal, gains, cid)
                expected = parent_at_error(loop, P.delta)
                assert loop_matrix(cid, P, gains).tobytes() == expected.tobytes()


def test_a_loop_that_overflows_is_a_verdict_without_warnings():
    # I - P0 K overflows at K = 1e308: each condition through it reads an
    # infinite radius and does not hold, and no certificate is searched
    P0, K, og = np.array([[10.0]]), np.array([[1e308]]), ObserverGain.diagonal(1, 0.9, 0.1)
    gains44 = GainSet(K=K, H=np.array([[0.1]]), observer=og)
    gains65 = GainSet(K=K, Hbar=np.array([[0.1]]), observer=og)
    structure = StructuredUncertainty(phi1=np.array([[0.1]]), phi2=np.array([[1.0]]))
    plant = TransferPlant(nominal=P0, delta=np.array([[0.01]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cid, gains in (("eq04", gains44), ("eq41", gains44), ("eq48", gains44), ("eq62", gains65)):
            report = check_condition(cid, plant, gains)
            assert report.method == "non_finite" and report.rho == math.inf
            assert not report.holds and report.margin == -math.inf
        assert check_condition("eq17", plant, gains44).holds
        assert lmi_search("eq44", P0, structure, gains44) is None
        assert lmi_search("eq65", P0, structure, gains65) is None
        assert seed_of(np.array([[0.5, math.inf], [0.0, 0.5]]), 1) is None


def test_ill_posed_certificate_problems_raise():
    P0, gains44, gains65, structure = small_instance()
    wrong_structure = StructuredUncertainty(phi1=np.eye(2), phi2=np.eye(1))
    for args in (
        ("eq99", P0, structure, gains44),  # unknown id
        ("eq44", P0, structure, GainSet(K=gains44.K, H=gains44.H)),  # no observer
        ("eq44", np.ones((2, 1)), structure, gains44),  # nominal wider than the observer
        ("eq44", P0, wrong_structure, gains44),
        ("eq44", P0, structure, gains65),  # no H
        ("eq65", P0, structure, gains44),  # no Hbar
    ):
        with pytest.raises(ValueError):
            lmi_search(*args)
    cert = LmiCertificate(Q11=np.eye(2), Q21=np.zeros((4, 2)), Q22=np.eye(4), tau=1.0)
    with pytest.raises(ValueError, match="certificate dimension"):
        lmi_verify("eq44", cert, P0, structure, gains44)


def traced_peak(f, *args, **kwargs):
    """``f``'s result and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        return f(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_wide_search_budget_pins_grid_order_and_memory():
    problem = wide_reference_problem(100)
    # the first scale's 17 candidates all fail; the 18th, the first of
    # scale 0.5, verifies
    assert reference_lmi_search("eq101", *problem, budget=17, seed=dense_seed) is None

    ref, ref_peak = traced_peak(
        reference_lmi_search, "eq101", *problem, budget=18, seed=dense_seed
    )
    cert, peak = traced_peak(lmi_search, "eq101", *problem)

    assert cert is not None and ref is not None
    assert cert.tau == ref.tau == 1e-4
    for name in ("Q11", "Q21", "Q22"):
        assert getattr(cert, name).tobytes() == getattr(ref, name).tobytes()
    # seeded by scipy's solver, the reference also verifies on the 18th
    # candidate and not before
    assert reference_lmi_search("eq101", *problem, budget=17) is None
    assert_same_certificate_as_scipy_seeded(cert, "eq101", problem, budget=18)
    # one inequality and one work buffer: a dense copy per candidate, or a
    # separate tau coefficient matrix, would need one or two more
    assert peak <= 1.05 * ref_peak
