import io
import json
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.linalg import solve_discrete_lyapunov

from iterlearn import cli, presets
from iterlearn.learner import (
    GainSet,
    LearningLaw,
    SimulationConfig,
    run,
    synth_H_pseudo,
    synth_Hbar,
)
from iterlearn.matanalysis import block_spectral_radius, cholesky_negative_definite, induced_norm
from iterlearn.observer import ObserverGain, build_extended, error_dynamics_matrix
from iterlearn.plant import (
    StructuredUncertainty,
    TransferPlant,
    UncertaintyModel,
    sample_structured_delta,
)
from iterlearn.stability import (
    CONDITION_IDS,
    LMI_IDS,
    _CATALOG,
    LmiCertificate,
    _assemble_lmi,
    _at_error,
    _lmi_edges,
    _lmi_grid,
    _lyapunov_seed,
    _robust_form,
    _robust_loop,
    certificate_from_dict,
    certificate_to_dict,
    check_condition,
    lmi_search,
    lmi_verify,
    load_certificate,
    loop_matrix,
    save_certificate,
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
    for seed in exp.seeds:
        reports = [r.to_dict() for r in exp.condition_reports(seed)]
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

@pytest.mark.parametrize("identity_id", ["eq20", "eq30", "eq61", "eq76"])
def test_separation_identities_random(identity_id):
    rng = np.random.default_rng(hash(identity_id) % (2**32))
    for _ in range(50):
        # eq76's target is block upper-triangular only without model error
        plant = random_plant(rng, with_delta=False)
        gains = random_gainset(rng, plant)
        residual, upper = verify_separation(identity_id, plant, gains)
        assert residual < 1e-10
        assert upper


def test_eq76_residual_with_model_error():
    # with model error the identity still holds exactly, but the target
    # matrix is no longer block upper-triangular
    rng = np.random.default_rng(123)
    plant = random_plant(rng, with_delta=True, delta_scale=0.3)
    gains = random_gainset(rng, plant, with_H=False)
    residual, upper = verify_separation("eq76", plant, gains)
    assert residual < 1e-10
    assert not upper


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


def reference_lmi_search(lmi_id, nominal, structure, gains, budget=200):
    """The search as first written, kept as the oracle: a fresh validated
    certificate, a fresh hand-expanded assembly and a full symmetric
    eigenvalue solve for every candidate, in the same grid order."""
    P0 = np.asarray(nominal, dtype=float)
    M0 = oracle_loop_matrix(ORACLE_IMPLIED[lmi_id], TransferPlant(nominal=P0), gains, P0)
    p = gains.observer.p
    if block_spectral_radius(M0, p)[0] >= 1.0:
        return None
    Qfull = solve_discrete_lyapunov(M0.T, np.eye(3 * p))
    Qfull = 0.5 * (Qfull + Qfull.T)
    if np.linalg.eigvalsh(Qfull).min() <= 0:
        return None
    Qfull /= induced_norm(Qfull, "two")

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


def grid_of(lmi_id, nominal, structure, gains):
    """Every candidate of the search, with ``G(tau)`` copied out."""
    loop = _robust_loop(lmi_id, nominal, structure, gains)
    Qfull = _lyapunov_seed(loop[0], gains.observer.p)
    assert Qfull is not None
    n = _lmi_edges(len(Qfull), structure)[-1]
    grid = _lmi_grid(Qfull, loop, structure, np.empty((n, n)))
    return [(Q, tau, G.copy()) for Q, tau, G, _ in grid]


def test_lmi_search_matches_reference_on_random_problems():
    rng = np.random.default_rng(20)
    found = past_first_scale = 0
    for i in range(10):
        for lmi_id in LMI_IDS:
            problem = random_lmi_problem(rng, lmi_id, i % 5 + 1, identity_phi2=i % 2 == 0)
            ref = reference_lmi_search(lmi_id, *problem)
            cert = lmi_search(lmi_id, *problem)
            if ref is None:
                assert cert is None
                continue
            assert cert is not None and cert.tau == ref.tau
            assert cert.assembled().tobytes() == ref.assembled().tobytes()
            found += 1
            past_first_scale += reference_lmi_search(lmi_id, *problem, budget=17) is None
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
        Qfull = _lyapunov_seed(loop[0], problem[2].observer.p)
        assert Qfull is not None
        n = _lmi_edges(len(Qfull), problem[1])[-1]
        for _, _, G, screened in _lmi_grid(Qfull, loop, problem[1], np.empty((n, n))):
            verdict = cholesky_verdict(G)
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
    assert reference_lmi_search("eq101", *problem, budget=17) is None

    ref, ref_peak = traced_peak(reference_lmi_search, "eq101", *problem, budget=18)
    cert, peak = traced_peak(lmi_search, "eq101", *problem)

    assert cert is not None and ref is not None
    assert cert.tau == ref.tau == 1e-4
    for name in ("Q11", "Q21", "Q22"):
        assert getattr(cert, name).tobytes() == getattr(ref, name).tobytes()
    # one inequality and one work buffer: a dense copy per candidate, or a
    # separate tau coefficient matrix, would need one or two more
    assert peak <= 1.05 * ref_peak
