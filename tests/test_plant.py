import json
import math
import re

import numpy as np
import pytest

from iterlearn.plant import (
    UNCERTAINTY_KINDS,
    LiftedIlcSystem,
    StructuredUncertainty,
    TransferPlant,
    UncertaintyModel,
    diff_stats,
    json_floats,
    lift_ilc,
    load_ilc_system,
    parse_ilc_system,
    perturb_elementwise,
    perturb_system,
    save_ilc_system,
    uncertainty_sequence,
)

from extended_state import simulate_time_domain
from stability_oracles import sample_structured_delta

A_BENCH = np.array([[0.72, 0.0, 0.0], [1.0, -1.04, -0.81], [0.0, 0.81, 0.0]])
B_BENCH = np.array([[1.0], [0.0], [0.0]])
C_BENCH = np.array([[1.0, -0.98, -1.09]])


def scalar_system(T):
    return LiftedIlcSystem(A=[[1.0]], B=[[1.0]], C=[[1.0]], horizon=T)


def random_system(rng, ns_max=4, T_max=10):
    while True:
        ns = int(rng.integers(1, ns_max + 1))
        ni = int(rng.integers(1, 3))
        no = int(rng.integers(1, ni + 1))  # no <= ni so C B can have full row rank
        T = int(rng.integers(1, T_max + 1))
        A = rng.standard_normal((ns, ns)) * 0.6
        B = rng.standard_normal((ns, ni))
        C = rng.standard_normal((no, ns))
        sv = np.linalg.svd(C @ B, compute_uv=False)
        if sv.size >= no and sv[no - 1] > 1e-6 * max(1.0, sv[0]):
            return LiftedIlcSystem(A=A, B=B, C=C, horizon=T)


# ---------------------------------------------------------------------------
# lifting
# ---------------------------------------------------------------------------

def test_lift_scalar_two_steps():
    P, Q, S = lift_ilc(scalar_system(2))
    assert np.array_equal(P, [[1.0, 0.0], [1.0, 1.0]])
    assert np.array_equal(Q, [[1.0, 0.0], [1.0, 1.0]])
    assert np.array_equal(S, [[1.0], [1.0]])


def test_lift_single_step_is_cb():
    sys = LiftedIlcSystem(A=np.eye(2) * 0.5, B=np.eye(2), C=[[1.0, 2.0]], horizon=1)
    P, _, _ = lift_ilc(sys)
    assert np.allclose(P, sys.C @ sys.B)


def test_lift_benchmark_markov_parameters():
    sys = LiftedIlcSystem(A=A_BENCH, B=B_BENCH, C=C_BENCH, horizon=20)
    P, _, _ = lift_ilc(sys)
    assert P.shape == (20, 20)
    assert P[0, 0] == pytest.approx(1.0, abs=1e-14)      # C B
    assert P[1, 0] == pytest.approx(-0.26, abs=1e-14)    # C A B
    # lower-triangular Toeplitz structure
    assert np.allclose(np.triu(P, 1), 0.0)
    assert np.allclose(np.diag(P, -3), P[3, 0])


def reference_lift(sys):
    """The per-block lifting loop, kept as the oracle of ``lift_ilc``."""
    T = sys.horizon
    no, ni, ns = sys.n_outputs, sys.n_inputs, sys.n_states
    powers = [np.eye(ns)]
    for _ in range(T):
        powers.append(sys.A @ powers[-1])
    CA = [sys.C @ Ak for Ak in powers]
    P = np.zeros((T * no, T * ni))
    Q = np.zeros((T * no, T * ns))
    S = np.zeros((T * no, ns))
    for i in range(1, T + 1):
        S[(i - 1) * no : i * no] = CA[i]
        for j in range(1, i + 1):
            P[(i - 1) * no : i * no, (j - 1) * ni : j * ni] = CA[i - j] @ sys.B
            Q[(i - 1) * no : i * no, (j - 1) * ns : j * ns] = CA[i - j]
    return P, Q, S


@pytest.mark.parametrize("horizon", [1, 20, 100, 200])
def test_lift_matches_reference_loop_bitwise(horizon):
    rng = np.random.default_rng(horizon)
    siso = LiftedIlcSystem(A=A_BENCH, B=B_BENCH, C=C_BENCH, horizon=horizon)
    # C B must have full row rank, so the MIMO case has more inputs than outputs
    mimo = LiftedIlcSystem(
        A=0.6 * rng.standard_normal((4, 4)),
        B=rng.standard_normal((4, 3)),
        C=rng.standard_normal((2, 4)),
        horizon=horizon,
    )
    for sys in (siso, mimo):
        for got, want in zip(lift_ilc(sys), reference_lift(sys)):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def test_cb_row_rank_enforced():
    with pytest.raises(ValueError):
        LiftedIlcSystem(A=np.eye(2), B=[[0.0], [1.0]], C=[[1.0, 0.0]], horizon=3)


# ---------------------------------------------------------------------------
# time-domain rollout
# ---------------------------------------------------------------------------

def test_simulate_zero_input_zero_output():
    sys = scalar_system(4)
    y = simulate_time_domain(sys, np.zeros(4))
    assert np.array_equal(y, np.zeros(4))


def test_simulate_scalar_hand_rollout():
    y = simulate_time_domain(scalar_system(2), [1.0, 0.0])
    assert np.array_equal(y, [1.0, 1.0])


def test_simulate_matches_lift_seeded():
    rng = np.random.default_rng(5)
    sys = LiftedIlcSystem(
        A=rng.standard_normal((3, 3)) * 0.5,
        B=rng.standard_normal((3, 1)),
        C=rng.standard_normal((1, 3)),
        horizon=5,
    )
    P, Q, S = lift_ilc(sys)
    u = rng.standard_normal(5)
    w = rng.standard_normal(15)
    v = rng.standard_normal(5)
    x0 = rng.standard_normal(3)
    y = simulate_time_domain(sys, u, w, v, x0)
    assert np.abs(y - (P @ u + Q @ w + v + S @ x0)).max() < 1e-12


def test_lifting_oracle_many_instances():
    rng = np.random.default_rng(77)
    for _ in range(50):
        sys = random_system(rng)
        P, Q, S = lift_ilc(sys)
        u = rng.standard_normal(sys.horizon * sys.n_inputs)
        w = rng.standard_normal(sys.horizon * sys.n_states)
        v = rng.standard_normal(sys.horizon * sys.n_outputs)
        x0 = rng.standard_normal(sys.n_states)
        y = simulate_time_domain(sys, u, w, v, x0)
        assert np.abs(y - (P @ u + Q @ w + v + S @ x0)).max() < 1e-12


def test_simulate_dimension_mismatch():
    with pytest.raises(ValueError):
        simulate_time_domain(scalar_system(3), np.zeros(2))


# ---------------------------------------------------------------------------
# structured uncertainty sampling
# ---------------------------------------------------------------------------

def test_sample_zero_phi1_gives_zero():
    st = StructuredUncertainty(phi1=np.zeros((2, 2)), phi2=np.eye(2))
    for seed in (0, 1, 99):
        assert np.array_equal(sample_structured_delta(st, seed), np.zeros((2, 2)))


def test_sample_identity_structure_contraction():
    st = StructuredUncertainty(phi1=np.eye(2), phi2=np.eye(2))
    for seed in range(20):
        delta = sample_structured_delta(st, seed)
        assert np.linalg.svd(delta, compute_uv=False)[0] <= 1.0 + 1e-12


def test_sample_deterministic_per_seed():
    st = StructuredUncertainty(phi1=np.eye(2), phi2=np.ones((2, 2)))
    a = sample_structured_delta(st, 123)
    b = sample_structured_delta(st, 123)
    c = sample_structured_delta(st, 124)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# uncertainty models
# ---------------------------------------------------------------------------

def test_cumulative_sine_first_values():
    rows = uncertainty_sequence(UncertaintyModel.cumulative_sine(3), 2)
    assert np.array_equal(rows[0], np.zeros(3))  # sin(0)/1
    expected = math.sin(0.005) / math.sqrt(2.0)
    assert np.allclose(rows[1], expected, atol=1e-15)
    assert rows[1, 0] == pytest.approx(0.003535519174559877, abs=1e-15)


def test_ramp_values():
    v = np.array([1.0, -2.0])
    rows = uncertainty_sequence(UncertaintyModel.ramp(v), 8)
    assert np.array_equal(rows[0], 0 * v)
    assert np.array_equal(rows[7], 7 * v)


def test_table_clamps_after_end():
    rows = uncertainty_sequence(UncertaintyModel.from_table([[1.0], [2.0]]), 6)
    assert rows[0, 0] == 1.0
    assert rows[5, 0] == 2.0


def test_seeded_bounded_deterministic_and_bounded():
    model = UncertaintyModel.seeded_bounded(4, bound=0.3, seed=9)
    rows = uncertainty_sequence(model, 13)
    assert np.array_equal(rows, uncertainty_sequence(model, 13))
    assert not np.array_equal(rows[11], rows[12])
    assert np.abs(rows).max() <= 0.3


def test_a_negative_seed_is_rejected():
    # numpy's default_rng takes no seed below 0
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        UncertaintyModel.seeded_bounded(4, bound=0.3, seed=-1)
    unseeded = UncertaintyModel(kind="seeded_bounded", dimension=4, bound=0.3)
    with pytest.raises(ValueError, match="seed must be nonnegative, got -2"):
        unseeded.with_seed(-2)


ALL_KIND_MODELS = [
    UncertaintyModel.zero(2),
    UncertaintyModel.constant([0.3, -1.0]),
    UncertaintyModel.ramp([0.1, -0.7]),
    UncertaintyModel.cumulative_sine(2),
    UncertaintyModel.from_table([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
    UncertaintyModel.seeded_bounded(2, bound=0.4, seed=5),
]


def test_uncertainty_sequence_rows_follow_kind_formulas():
    n = 300
    rows = {m.kind: uncertainty_sequence(m, n) for m in ALL_KIND_MODELS}
    assert set(rows) == set(UNCERTAINTY_KINDS)
    assert all(r.shape == (n, 2) for r in rows.values())
    assert np.array_equal(rows["zero"], np.zeros((n, 2)))
    assert all(np.array_equal(r, [0.3, -1.0]) for r in rows["constant"])
    slope = np.array([0.1, -0.7])
    for k in range(n):
        assert np.array_equal(rows["ramp"][k], k * slope), k
        expected = np.random.default_rng([5, k]).uniform(-0.4, 0.4, 2)
        assert np.array_equal(rows["seeded_bounded"][k], expected), k
    assert np.array_equal(rows["table"][:3], [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(rows["table"][3:], np.tile([5.0, 6.0], (n - 3, 1)))


def test_uncertainty_sequence_is_prefix_stable():
    # row k never depends on how many rows were asked for
    for model in ALL_KIND_MODELS:
        rows = uncertainty_sequence(model, 300)
        for j in (0, 1, 2, 3, 17, 299, 300):
            short = uncertainty_sequence(model, j)
            assert short.shape == (j, 2)
            assert short.tobytes() == rows[:j].tobytes(), (model.kind, j)


def test_cumulative_sine_sequence_matches_direct_sum():
    model = UncertaintyModel.cumulative_sine(3)
    i = np.arange(4001)
    direct = np.sum(np.sin(i / 200.0) / np.sqrt(i + 1.0))
    assert np.abs(uncertainty_sequence(model, 4001)[4000] - direct).max() < 1e-12


def test_negative_iteration_rejected():
    for model in ALL_KIND_MODELS:
        with pytest.raises(ValueError):
            uncertainty_sequence(model, -1)


# ---------------------------------------------------------------------------
# difference statistics
# ---------------------------------------------------------------------------

def test_diff_stats_constant_model():
    model = UncertaintyModel.constant([3.0, -1.0])
    st = diff_stats(model, 1, horizon=200, tail_window=50)
    assert st.sup_bound == 0.0
    assert st.tail_bound == 0.0


def test_diff_stats_ramp_orders():
    v = np.array([0.5, -2.0])
    model = UncertaintyModel.ramp(v)
    st1 = diff_stats(model, 1, horizon=300, tail_window=50)
    st2 = diff_stats(model, 2, horizon=300, tail_window=50)
    assert st1.sup_bound == pytest.approx(2.0)
    assert st1.tail_bound == pytest.approx(2.0)
    assert st2.sup_bound == 0.0


def test_diff_stats_cumulative_sine_closed_form():
    # forward difference of the partial sums: |sin((k+1)/200)| / sqrt(k+2)
    model = UncertaintyModel.cumulative_sine(2)
    K = 1000
    st = diff_stats(model, 1, horizon=K, tail_window=100)
    k = np.arange(K + 1)
    closed = np.abs(np.sin((k + 1) / 200.0)) / np.sqrt(k + 2.0)
    assert st.sup_bound == pytest.approx(closed.max(), abs=1e-12)
    assert st.tail_bound == pytest.approx(closed[K - 100 + 1 :].max(), abs=1e-12)


def test_diff_chain_inequality():
    models = [
        UncertaintyModel.constant([1.0, 2.0]),
        UncertaintyModel.cumulative_sine(2),
        UncertaintyModel.seeded_bounded(2, bound=1.5, seed=3),
        UncertaintyModel.from_table(np.random.default_rng(0).uniform(-1, 1, (400, 2))),
    ]
    for model in models:
        base = diff_stats(model, 0, horizon=302, tail_window=50)
        for order in (0, 1, 2):
            st = diff_stats(model, order, horizon=300, tail_window=50)
            assert st.tail_bound <= st.sup_bound + 1e-15
            assert st.sup_bound <= 2**order * base.sup_bound + 1e-12


def test_vanishing_variation_rate_does_not_imply_vanishing_variation():
    # the ramp has zero variation rate but nonzero variation
    model = UncertaintyModel.ramp([1.0])
    st1 = diff_stats(model, 1, horizon=300, tail_window=50)
    st2 = diff_stats(model, 2, horizon=300, tail_window=50)
    assert st2.tail_bound == 0.0
    assert st1.tail_bound > 0.0


def test_diff_stats_rejects_bad_window():
    with pytest.raises(ValueError):
        diff_stats(UncertaintyModel.zero(1), 1, horizon=10, tail_window=10)


# ---------------------------------------------------------------------------
# plants and perturbations
# ---------------------------------------------------------------------------

def test_transfer_plant_default_beta():
    plant = TransferPlant(nominal=np.eye(2), delta=0.1 * np.eye(2))
    assert np.allclose(plant.full(), 1.1 * np.eye(2))


def test_transfer_plant_shape_mismatch():
    with pytest.raises(ValueError):
        TransferPlant(nominal=np.eye(2), delta=np.zeros((2, 3)))


def test_perturb_elementwise_bounds_and_zeros():
    rng = np.random.default_rng(0)
    M = np.array([[1.0, 0.0], [-2.0, 4.0]])
    out = perturb_elementwise(M, 0.3, rng)
    assert out[0, 1] == 0.0
    ratio = out[M != 0] / M[M != 0]
    assert np.all(np.abs(ratio - 1.0) <= 0.3)


def test_perturb_system_deterministic():
    sys = LiftedIlcSystem(A=A_BENCH, B=B_BENCH, C=C_BENCH, horizon=4)
    a = perturb_system(sys, 0.3, 5)
    b = perturb_system(sys, 0.3, 5)
    assert np.array_equal(a.A, b.A) and np.array_equal(a.C, b.C)


def test_ilc_system_json_round_trip(tmp_path):
    sys = LiftedIlcSystem(A=A_BENCH, B=B_BENCH, C=C_BENCH, horizon=6)
    path = tmp_path / "sys.json"
    save_ilc_system(path, sys)
    back = load_ilc_system(path)
    assert np.array_equal(back.A, sys.A)
    assert np.array_equal(back.B, sys.B) and np.array_equal(back.C, sys.C)
    assert back.horizon == 6
    assert set(json.loads(path.read_text())) == {"format_version", "A", "B", "C", "horizon"}


def test_ilc_system_file_with_zero_x0_policy_is_read():
    # older files carry the zero initial-state policy explicitly
    doc = {"A": A_BENCH.tolist(), "B": B_BENCH.tolist(), "C": C_BENCH.tolist(), "horizon": 6}
    doc["x0_policy"] = {"kind": "zero"}
    sys = parse_ilc_system(doc)
    assert np.array_equal(sys.A, A_BENCH) and sys.horizon == 6


def test_json_floats_reads_numbers_as_numpy_does():
    for value in ([], [[]], [1, 2.5], [[1, -0.0], [3e300, 4]], 7, [[[1.5]]]):
        got = json_floats(value, "x")
        assert got.dtype == float
        assert got.tobytes() == np.asarray(value, dtype=float).tobytes()
        assert got.shape == np.asarray(value, dtype=float).shape


@pytest.mark.parametrize(
    "value, bad",
    [
        (["0.1"], '"0.1"'),
        ([1.0, True], "true"),
        ([[1.0], [None]], "null"),
        ([[1.0, {"a": 1}]], '{"a": 1}'),
        ("12", '"12"'),
    ],
)
def test_json_floats_rejects_entries_that_are_not_numbers(value, bad):
    with pytest.raises(ValueError, match=f"^x entries must be numbers, got {re.escape(bad)}$"):
        json_floats(value, "x")


def test_json_floats_rejects_arrays_mixed_with_numbers():
    with pytest.raises(ValueError, match="x must be a rectangular nested array of numbers"):
        json_floats([1.0, [2.0]], "x")
    with pytest.raises(ValueError):  # ragged at one depth: numpy refuses it
        json_floats([[1.0], [2.0, 3.0]], "x")
