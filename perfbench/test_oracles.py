"""Tests of the benchmark's oracles and of its contract.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import oracles  # noqa: E402
import run  # noqa: E402

from iterlearn import learner, presets, stability  # noqa: E402
from iterlearn.plant import TransferPlant  # noqa: E402


def test_markov_lift_matches_a_time_domain_rollout():
    A, B, C = oracles.perturbed_abc(3)
    T = 12
    P = oracles.markov_lift(A, B, C, T)
    u = np.random.default_rng(0).normal(size=T)
    x = np.zeros(3)
    y = []
    for t in range(T):
        x = A @ x + B[:, 0] * u[t]
        y.append(C[0] @ x)
    np.testing.assert_allclose(P @ u, y, rtol=1e-12, atol=1e-12)
    assert np.all(np.triu(P, 1) == 0.0)


def test_perturbed_draw_matches_the_reference_presets():
    sys_draw = presets.perturbed_reference_system(7)
    for mine, theirs in zip(oracles.perturbed_abc(7), (sys_draw.A, sys_draw.B, sys_draw.C)):
        np.testing.assert_array_equal(mine, theirs)


def test_cumulative_sine_is_the_documented_partial_sum():
    N = oracles.cumulative_sine(300, 2)
    for k in (0, 1, 17, 300):
        direct = sum(np.sin(i / 200.0) / np.sqrt(i + 1.0) for i in range(k + 1))
        assert N[k, 0] == pytest.approx(direct, rel=1e-13, abs=1e-15)
        assert N[k, 1] == N[k, 0]


def test_p_type_reference_loop_contracts_geometrically():
    # P = I and K = 0.5 I with no drift: E_k = 0.5^k r exactly
    T = 4
    I = np.eye(T)
    gains = {"K": 0.5 * I, "Hbar": I, "S": I, "L1": I, "L2": I}
    r = np.array([1.0, -2.0, 0.5, 0.25])
    out = oracles.reference_loop(I, r, np.zeros((11, T)), "p_type", gains)
    np.testing.assert_allclose(out["err_inf"], 2.0 * 0.5 ** np.arange(10), rtol=1e-15)
    assert out["u_peak"] == pytest.approx(2.0 * (1 - 0.5**10), rel=1e-15)


@pytest.mark.parametrize("law", ["p_type", "eso_model_free"])
def test_reference_loop_agrees_with_the_engine(law):
    T, K, seed = 20, 300, 2
    ref = oracles.reference_loop(
        oracles.true_plant(seed, T),
        oracles.target(T),
        oracles.cumulative_sine(K, T),
        law,
        oracles.reference_gains(T),
    )
    trace = learner.run(presets.reference_config(seed, law, K, T))
    sup = trace.err_inf.max()
    assert np.abs(ref["err_inf"] - trace.err_inf).max() <= 1e-9 * sup
    assert np.abs(ref["u_norm"] - trace.u_norm).max() <= 1e-9 * trace.u_norm.max()


def test_gains_and_lifted_plant_are_lower_triangular_toeplitz():
    g = oracles.reference_gains(30)
    for name in ("K", "Hbar", "S"):
        oracles.assert_lower_triangular_toeplitz(g[name], name)
    oracles.assert_lower_triangular_toeplitz(oracles.true_plant(4, 30), "P")
    bad = g["K"].copy()
    bad[0, 1] = 1e-300
    with pytest.raises(AssertionError):
        oracles.assert_lower_triangular_toeplitz(bad, "K")
    with pytest.raises(AssertionError):
        oracles.exact_rho([[bad]])


def _mpmath_rho(M: np.ndarray) -> float:
    with mpmath.workdps(60):
        eigenvalues = mpmath.eig(mpmath.matrix(M.tolist()), left=False, right=False)
        return float(max(abs(v) for v in eigenvalues))


@pytest.mark.parametrize("seed", [1, 5])
@pytest.mark.parametrize("condition_id", ["eq04", "eq17", "eq62", "eq95", "eq102"])
def test_exact_rho_matches_mpmath_at_small_horizon(seed, condition_id):
    T = 4
    blocks = oracles.catalog_blocks(condition_id, oracles.true_plant(seed, T), oracles.reference_gains(T))
    assert oracles.exact_rho(blocks) == pytest.approx(_mpmath_rho(np.block(blocks)), rel=1e-9)


def test_catalog_blocks_build_the_programs_matrices():
    # same matrices as the program: the dense radii agree where they are reliable
    T, seed = 20, 3
    P = oracles.true_plant(seed, T)
    g = oracles.reference_gains(T)
    plant_ = TransferPlant(nominal=np.zeros_like(P), delta=P)
    gains = presets.reference_gains(presets.banded_surrogate(T))
    for cid in ("eq04", "eq17", "eq95"):
        rep = stability.check_condition(cid, plant_, gains, surrogate=g["S"])
        assert rep.rho == pytest.approx(oracles.exact_rho(oracles.catalog_blocks(cid, P, g)), rel=1e-12)
        assert rep.rho == pytest.approx(oracles.dense_rho(oracles.catalog_blocks(cid, P, g)), rel=1e-12)


def test_certificate_check_accepts_a_found_certificate_and_rejects_an_indefinite_q():
    T, eta = 10, 0.05
    S = presets.banded_surrogate(T)
    gains = presets.reference_gains(S)
    I = np.eye(T)
    cert = stability.lmi_search("eq101", S, stability.StructuredUncertainty(phi1=eta * I, phi2=I), gains)
    assert cert is not None
    doc = stability.certificate_to_dict(cert)
    g = oracles.reference_gains(T)
    assert oracles.certificate_problems(doc, g, eta * I, I, seed=0, samples=3) == []
    doc["Q22"] = (-np.asarray(doc["Q22"])).tolist()
    assert "Q is not positive definite" in oracles.certificate_problems(doc, g, eta * I, I, seed=0, samples=0)


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "drift_sim", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
