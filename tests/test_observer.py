import numpy as np
import pytest

from iterlearn.learner import GainSet, LearningLaw, SimulationConfig, run
from iterlearn.observer import (
    ObserverGain,
    build_extended,
    check_observer_condition,
    error_dynamics_matrix,
    simulate_observation_error,
)
from iterlearn.plant import TransferPlant, UncertaintyModel, uncertainty_sequence

# spectral radius of the benchmark observer loop at p=1 with gains 0.9/0.1:
# largest root of lambda^2 - 1.1 lambda + 0.2, frozen from (1.1+sqrt(0.41))/2
RHO_BENCH_OBSERVER = 0.87015621187164243


def test_build_extended_scalar_blocks():
    es = build_extended(1, np.array([[1.0]]))
    assert np.array_equal(es.Abar, [[1.0, 1.0], [0.0, 1.0]])
    assert np.array_equal(es.Bbar_used, [[1.0], [0.0]])
    assert np.array_equal(es.Cbar, [[1.0, 0.0]])
    assert np.array_equal(es.F, [[0.0, 1.0]])


def test_build_extended_rejects_row_mismatch():
    with pytest.raises(ValueError):
        build_extended(2, np.ones((3, 2)))


def test_bbar_lower_rows_zero():
    es = build_extended(2, np.arange(6.0).reshape(2, 3) + 1)
    assert es.Bbar_used.shape == (4, 3)
    assert np.array_equal(es.Bbar_used[2:], np.zeros((2, 3)))


@pytest.mark.parametrize("p,m", [(1, 1), (2, 3), (3, 2)])
def test_structure_identities_exact(p, m):
    rng = np.random.default_rng(p * 10 + m)
    P = rng.standard_normal((p, m))
    es = build_extended(p, P)
    assert np.array_equal(es.Cbar.T @ P, es.Bbar_used)
    assert np.array_equal(es.Abar @ es.Cbar.T, es.Cbar.T)
    assert np.array_equal(es.Cbar @ es.Cbar.T, np.eye(p))
    assert np.array_equal(es.F @ es.Cbar.T, np.zeros((p, p)))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_observability_full_rank(p):
    es = build_extended(p, np.eye(p))
    rows = [es.Cbar]
    for _ in range(2 * p - 1):
        rows.append(rows[-1] @ es.Abar)
    obs = np.vstack(rows)
    sv = np.linalg.svd(obs, compute_uv=False)
    assert np.sum(sv > 1e-8) == 2 * p


@pytest.mark.parametrize("p,m,rank", [(2, 2, 1), (3, 3, 2), (2, 3, 2)])
def test_controllability_rank_deficient(p, m, rank):
    # P_used with prescribed rank; the reachable set of the extended pair
    # is span [P; 0], so the controllability matrix has rank(P) < 2p
    rng = np.random.default_rng(p * 7 + m)
    P = rng.standard_normal((p, rank)) @ rng.standard_normal((rank, m))
    es = build_extended(p, P)
    blocks = [es.Bbar_used]
    for _ in range(2 * p - 1):
        blocks.append(es.Abar @ blocks[-1])
    ctrb = np.hstack(blocks)
    sv = np.linalg.svd(ctrb, compute_uv=False)
    measured = int(np.sum(sv > 1e-8 * max(1.0, sv[0])))
    assert measured == rank
    assert measured < 2 * p


# ---------------------------------------------------------------------------
# observer stepping
# ---------------------------------------------------------------------------

def test_observer_scalar_hand_values():
    # one eso_mixed step from a zero estimate on a 1x1 plant: the first
    # update is e^_1 = P ubar_0 + L1 e_0 and d^_1 = L2 e_0; the values are
    # dyadic, so every step is exact in any summation order
    P = 1.25
    config = SimulationConfig(
        plant=TransferPlant(nominal=np.array([[P]])),
        target=np.array([0.625]),
        uncertainty=UncertaintyModel.constant([1.0]),
        gains=GainSet(
            K=np.array([[0.5]]),
            H=np.array([[0.25]]),
            observer=ObserverGain.diagonal(1, 0.75, 0.125),
        ),
        law=LearningLaw(mode="eso_mixed"),
        iterations=2,
    )
    trace = run(config)
    assert np.array_equal(trace.e_hat[0], [0.0]) and np.array_equal(trace.d_hat[0], [0.0])
    ubar, e = trace.ubar[0, 0], trace.e[0, 0]
    assert e == -0.375 and ubar == 0.1875
    assert trace.e_hat[1, 0] == P * ubar + 0.75 * e == -0.046875
    assert trace.d_hat[1, 0] == 0.125 * e


# ---------------------------------------------------------------------------
# observer loop condition
# ---------------------------------------------------------------------------

def test_condition_deadbeat_error_gain_fails():
    # L1 = I, L2 = 0 leaves an eigenvalue at 1
    gains = ObserverGain(L1=np.eye(2), L2=np.zeros((2, 2)))
    holds, rho = check_observer_condition(gains)
    assert rho == pytest.approx(1.0, abs=1e-10)
    assert not holds


def test_condition_benchmark_gains():
    holds, rho = check_observer_condition(ObserverGain.diagonal(1, 0.9, 0.1))
    assert holds
    assert rho == pytest.approx(RHO_BENCH_OBSERVER, abs=1e-12)


def test_condition_zero_gains_fail():
    gains = ObserverGain(L1=np.zeros((2, 2)), L2=np.zeros((2, 2)))
    holds, rho = check_observer_condition(gains)
    assert rho == pytest.approx(1.0, abs=1e-10)
    assert not holds


# ---------------------------------------------------------------------------
# observation-error rollouts
# ---------------------------------------------------------------------------

def test_observation_error_identically_zero():
    gains = ObserverGain.diagonal(1, 0.9, 0.1)
    out = simulate_observation_error(gains, np.zeros(2), None, 20)
    assert np.array_equal(out, np.zeros((21, 2)))


def test_observation_error_geometric_decay():
    gains = ObserverGain.diagonal(1, 0.9, 0.1)
    out = simulate_observation_error(gains, np.array([1.0, 1.0]), None, 250)
    norms = np.abs(out).max(axis=1)
    # contraction at roughly rho^k: below 1e-10 well within 250 steps
    assert norms[200:].max() < 1e-10
    assert norms[-1] < 1e-10


def test_observation_error_ramp_driving_vanishes():
    # ramp uncertainty has zero second difference, so the error recursion
    # is undriven and the initial error dies out
    p = 2
    es = build_extended(p, np.eye(p))
    gains = ObserverGain.diagonal(p, 0.9, 0.1)
    # slopes exactly representable in binary keep the second difference at 0
    model = UncertaintyModel.ramp([0.5, -1.25])
    K = 260
    F = es.F
    d2 = np.diff(uncertainty_sequence(model, K + 2), n=2, axis=0)
    driving = -d2 @ F
    assert np.abs(driving).max() == 0.0
    out = simulate_observation_error(gains, np.array([3.0, -2.0, 1.0, 0.5]), driving, K)
    assert np.abs(out[-1]).max() < 1e-10


def test_observation_error_dimension_checks():
    gains = ObserverGain.diagonal(1, 0.9, 0.1)
    with pytest.raises(ValueError):
        simulate_observation_error(gains, np.zeros(3), None, 5)
    with pytest.raises(ValueError):
        simulate_observation_error(gains, np.zeros(2), np.zeros((4, 2)), 5)


def test_error_dynamics_matrix_matches_blocks():
    gains = ObserverGain.diagonal(2, 0.7, 0.2)
    es = build_extended(2, np.eye(2))
    assert np.array_equal(
        error_dynamics_matrix(gains), es.Abar - gains.stacked @ es.Cbar
    )
