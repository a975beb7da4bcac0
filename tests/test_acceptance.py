"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np
import pytest

from iterlearn.learner import (
    GainSet,
    LearningLaw,
    SimulationConfig,
    run,
    synth_H_pseudo,
    synth_Hbar,
)
from iterlearn.matanalysis import (
    cholesky_negative_definite,
    induced_norm,
    spectral_radius,
)
from iterlearn.observer import ObserverGain
from iterlearn.plant import (
    LiftedIlcSystem,
    StructuredUncertainty,
    TransferPlant,
    UncertaintyModel,
    lift_ilc,
)
from iterlearn.presets import reference_config, reference_seeds
from iterlearn.stability import (
    LmiCertificate,
    lmi_search,
    lmi_verify,
)

from extended_state import simulate_observation_error, simulate_time_domain
from stability_oracles import theorem_implication_check, verify_separation

RHO_BENCH_OBSERVER = 0.87015621187164243


def report(criterion: int, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def full_row_rank(rng, p, m):
    while True:
        P = rng.standard_normal((p, m))
        sv = np.linalg.svd(P, compute_uv=False)
        if sv[p - 1] > 1e-2 * sv[0]:
            return P


def dyadic(rng, p, scale=64):
    v = rng.integers(1, scale + 1, p) * rng.choice([-1.0, 1.0], p)
    return v / scale


def test_criterion_1_reference_benchmark_reproduction():
    # model-free law vs plain error feedback on the lifted benchmark with
    # 30% element uncertainty and cumulative-sine disturbance; property
    # based: >= 10x tail improvement per seed and decay below 10% of the
    # initial error.  Budget: under 60 s.
    start = time.perf_counter()
    seeds = reference_seeds(10)
    assert len(seeds) >= 10
    worst_ratio = np.inf
    worst_rel = 0.0
    for seed in seeds:
        mf = run(reference_config(seed, "eso_model_free", iterations=500))
        pt = run(reference_config(seed, "p_type", iterations=500))
        assert not mf.diverged and not pt.diverged
        tail_mf = mf.err_inf[-50:].max()
        tail_pt = pt.err_inf[-50:].max()
        ratio = tail_pt / tail_mf
        rel = tail_mf / mf.err_inf[0]
        worst_ratio = min(worst_ratio, ratio)
        worst_rel = max(worst_rel, rel)
        assert ratio >= 10.0, f"seed {seed}: tail ratio {ratio:.2f} < 10"
        assert rel < 0.10, f"seed {seed}: tail error at {rel:.1%} of initial"
    elapsed = time.perf_counter() - start
    report(
        1,
        elapsed < 60.0,
        f"{len(seeds)} seeds, worst tail ratio {worst_ratio:.1f}x, worst "
        f"tail/initial {worst_rel:.2%}, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_superstability_separation():
    # ramp uncertainty: the mixed observer law converges to zero while the
    # plain law stalls at the variation level predicted by the contraction
    # bound of I - P K, which is (1 - c) I up to rounding
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    ratios = []
    for trial in range(20):
        p = int(rng.integers(1, 5))
        m = p + int(rng.integers(0, 7 - p))
        P = full_row_rank(rng, p, m)
        plant = TransferPlant(nominal=P)
        c = rng.uniform(0.25, 0.75)
        K = c * synth_H_pseudo(P)
        slope = dyadic(rng, p)
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
        trace_mixed = run(mixed)
        assert trace_mixed.err_inf[-1] < 1e-8, f"trial {trial}: mixed law stalled"

        plain = SimulationConfig(
            plant=plant,
            target=target,
            uncertainty=UncertaintyModel.ramp(slope),
            gains=GainSet(K=K),
            law=LearningLaw(mode="p_type"),
            iterations=2000,
        )
        tail = run(plain).err_inf[-50:].max()
        attained = induced_norm(np.eye(p) - P @ K, "infinity")
        bound = np.abs(slope).max() / (1.0 - attained)
        ratio = tail / bound
        ratios.append(ratio)
        assert 0.5 <= ratio <= 2.0, f"trial {trial}: tail/bound {ratio:.3f}"
    elapsed = time.perf_counter() - start
    report(
        2,
        elapsed < 30.0,
        f"20/20 seeds: mixed < 1e-8, plain tail/bound in "
        f"[{min(ratios):.3f}, {max(ratios):.3f}], {elapsed:.1f}s (< 30s)",
    )


def test_criterion_3_constant_uncertainty_stability():
    rng = np.random.default_rng(3033)
    for trial in range(20):
        p = int(rng.integers(1, 5))
        m = p + int(rng.integers(0, 3))
        P = full_row_rank(rng, p, m)
        c = rng.uniform(0.15, 0.85)
        config = SimulationConfig(
            plant=TransferPlant(nominal=P),
            target=rng.standard_normal(p),
            uncertainty=UncertaintyModel.constant(rng.standard_normal(p)),
            gains=GainSet(K=c * synth_H_pseudo(P)),
            law=LearningLaw(mode="p_type"),
            iterations=2000,
        )
        trace = run(config)
        assert spectral_radius(np.eye(p) - P @ config.gains.K) < 1
        assert trace.err_inf[-1] < 1e-9, f"trial {trial} final {trace.err_inf[-1]:.2e}"
    report(3, True, "20/20 seeds below 1e-9 within 2000 iterations")


def test_criterion_4_lifting_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = 0.0
    done = 0
    while done < 50:
        ns = int(rng.integers(1, 5))
        ni = int(rng.integers(1, 3))
        no = int(rng.integers(1, ni + 1))
        T = int(rng.integers(1, 11))
        A = 0.6 * rng.standard_normal((ns, ns))
        B = rng.standard_normal((ns, ni))
        C = rng.standard_normal((no, ns))
        sv = np.linalg.svd(C @ B, compute_uv=False)
        if sv.size < no or sv[no - 1] <= 1e-6 * max(1.0, sv[0]):
            continue
        sys = LiftedIlcSystem(A=A, B=B, C=C, horizon=T)
        P, Q, S = lift_ilc(sys)
        u = rng.standard_normal(T * ni)
        w = rng.standard_normal(T * ns)
        v = rng.standard_normal(T * no)
        x0 = rng.standard_normal(ns)
        gap = np.abs(
            simulate_time_domain(sys, u, w, v, x0) - (P @ u + Q @ w + v + S @ x0)
        ).max()
        worst = max(worst, gap)
        assert gap < 1e-12
        done += 1
    elapsed = time.perf_counter() - start
    report(4, elapsed < 5.0, f"50 instances, worst gap {worst:.2e} (< 1e-12), {elapsed:.2f}s")


def test_criterion_5_separation_identities():
    rng = np.random.default_rng(505)
    worst = {ident: 0.0 for ident in ("eq20", "eq30", "eq61", "eq76")}
    for ident in worst:
        for _ in range(50):
            p = int(rng.integers(1, 4))
            m = p + int(rng.integers(0, 3))
            P = full_row_rank(rng, p, m)
            plant = TransferPlant(nominal=P)
            K = rng.uniform(0.3, 0.7) * synth_H_pseudo(P)
            gains = GainSet(
                K=K,
                H=synth_H_pseudo(P) if ident in ("eq20", "eq30") else None,
                Hbar=synth_Hbar(P, K) if ident in ("eq61", "eq76") else None,
                observer=ObserverGain.diagonal(
                    p, rng.uniform(0.5, 1.2), rng.uniform(0.05, 0.4)
                ),
            )
            residual, upper = verify_separation(ident, plant, gains)
            worst[ident] = max(worst[ident], residual)
            assert residual < 1e-10, f"{ident}: residual {residual:.2e}"
            assert upper, f"{ident}: lower-left block not zero"
    detail = ", ".join(f"{k} worst {v:.1e}" for k, v in worst.items())
    report(5, True, f"50 instances each: {detail}")


def test_criterion_6_closed_form_trace_identities():
    rng = np.random.default_rng(606)
    worst_mixed = worst_robust = 0.0
    for _ in range(5):
        p = int(rng.integers(1, 4))
        m = p + int(rng.integers(0, 3))
        P = full_row_rank(rng, p, m)
        plant = TransferPlant(nominal=P)
        K = rng.uniform(0.3, 0.7) * synth_H_pseudo(P)
        gains = GainSet(
            K=K, H=synth_H_pseudo(P), observer=ObserverGain.diagonal(p, 0.9, 0.1)
        )
        config = SimulationConfig(
            plant=plant,
            target=rng.standard_normal(p),
            uncertainty=UncertaintyModel.cumulative_sine(p),
            gains=gains,
            law=LearningLaw(mode="eso_mixed"),
            iterations=400,
        )
        trace = run(config)
        loop = np.eye(p) - P @ K
        for k in range(len(trace) - 1):
            gap = np.abs(
                trace.e[k + 1] - (loop @ trace.e[k] + trace.d_true[k] - trace.d_hat[k])
            ).max()
            worst_mixed = max(worst_mixed, gap)
            assert gap < 1e-10

        P0 = full_row_rank(rng, p, m)
        plant_r = TransferPlant(nominal=P0, delta=0.2 * rng.standard_normal((p, m)))
        K_r = rng.uniform(0.3, 0.7) * synth_H_pseudo(P0)
        gains_r = GainSet(
            K=K_r,
            Hbar=synth_Hbar(P0, K_r),
            observer=ObserverGain.diagonal(p, 0.9, 0.1),
        )
        config_r = SimulationConfig(
            plant=plant_r,
            target=rng.standard_normal(p),
            uncertainty=UncertaintyModel.cumulative_sine(p),
            gains=gains_r,
            law=LearningLaw(mode="eso_robust"),
            iterations=400,
        )
        trace_r = run(config_r)
        loop_r = np.eye(p) - P0 @ K_r
        for k in range(len(trace_r) - 1):
            gap = np.abs(
                trace_r.e[k + 1]
                - (loop_r @ trace_r.e[k] + trace_r.d_true[k] - trace_r.d_hat[k])
            ).max()
            worst_robust = max(worst_robust, gap)
            assert gap < 1e-10
    report(
        6,
        True,
        f"per-step residuals: mixed worst {worst_mixed:.1e}, "
        f"robust worst {worst_robust:.1e} (< 1e-10)",
    )


def test_criterion_7_lmi_schur_chain():
    rng = np.random.default_rng(707)
    for p in (1, 2):
        m = p + 1
        # well-conditioned nominal with structure sized inside the margin;
        # badly sized structures are genuinely robustly unstable and no
        # certificate exists for them
        U = np.linalg.qr(rng.standard_normal((p, p)))[0]
        V = np.linalg.qr(rng.standard_normal((m, m)))[0]
        P0 = U @ np.hstack([np.diag(rng.uniform(0.8, 1.5, p)), np.zeros((p, m - p))]) @ V.T
        K = 0.5 * synth_H_pseudo(P0)
        gains = GainSet(
            K=K, H=synth_H_pseudo(P0), observer=ObserverGain.diagonal(p, 0.9, 0.1)
        )
        phi1 = rng.standard_normal((p, p))
        phi2 = rng.standard_normal((p, m))
        phi1 *= 0.05 / induced_norm(phi1, "two")
        phi2 /= induced_norm(phi2, "two")
        structure = StructuredUncertainty(phi1=phi1, phi2=phi2)
        cert = lmi_search("eq44", P0, structure, gains)
        assert cert is not None, f"p={p}: no certificate found"
        assert theorem_implication_check(
            "eq44", structure, gains, P0, cert, samples=100, seed=70 + p
        ), f"p={p}: a sampled model error violated the certified condition"

    # unstable nominal: every random certificate must be rejected
    P0u = np.array([[1.0]])
    gains_u = GainSet(
        K=np.array([[3.0]]),
        H=synth_H_pseudo(P0u),
        observer=ObserverGain.diagonal(1, 0.9, 0.1),
    )
    structure_u = StructuredUncertainty(phi1=np.array([[0.05]]), phi2=np.array([[1.0]]))
    rejected = 0
    for i in range(20):
        r = np.random.default_rng(9000 + i)
        G = r.standard_normal((3, 3))
        Q = G @ G.T + 0.1 * np.eye(3)
        cert = LmiCertificate(
            Q11=Q[:1, :1], Q21=Q[1:, :1], Q22=Q[1:, 1:], tau=float(r.uniform(1e-3, 10))
        )
        rejected += not lmi_verify("eq44", cert, P0u, structure_u, gains_u)
    assert rejected == 20
    report(
        7,
        True,
        "p in {1,2}: certificates found, 100 sampled errors each keep rho < 1; "
        f"unstable nominal rejected {rejected}/20 certificates",
    )


def test_criterion_8_observer_superattractiveness():
    # undriven error recursion (vanishing variation rate) decays below
    # 1e-10, at the rate set by the observer loop's spectral radius
    p = 1
    gains = ObserverGain.diagonal(p, 0.9, 0.1)
    out = simulate_observation_error(gains, np.array([1.0, 1.0]), None, 300)
    norms = np.abs(out).max(axis=1)
    below = np.nonzero(norms < 1e-10)[0]
    assert below.size > 0, "observation error never reached 1e-10"
    a, b = 30, 80
    rate = (norms[b] / norms[a]) ** (1.0 / (b - a))
    rel = abs(rate - RHO_BENCH_OBSERVER) / RHO_BENCH_OBSERVER
    assert rel < 0.05, f"measured rate {rate:.5f} deviates {rel:.1%}"
    report(
        8,
        True,
        f"error below 1e-10 from step {below[0]}, measured rate {rate:.4f} "
        f"vs {RHO_BENCH_OBSERVER:.4f} ({rel:.2%} off)",
    )


def test_criterion_9_matrix_analysis_suite():
    rng = np.random.default_rng(909)

    # spectral radius against the characteristic-polynomial oracle
    def char_poly_roots(M):
        n = M.shape[0]
        coeffs = [1.0]
        Mk = np.eye(n)
        for k in range(1, n + 1):
            Mk = M @ Mk
            ck = -np.trace(Mk) / k
            coeffs.append(ck)
            Mk += ck * np.eye(n)
        return np.roots(coeffs)

    worst_eig = 0.0
    for _ in range(40):
        n = int(rng.integers(2, 5))
        M = rng.standard_normal((n, n))
        gap = abs(spectral_radius(M) - np.abs(char_poly_roots(M)).max())
        tol = 1e-8 * max(1.0, induced_norm(M))
        worst_eig = max(worst_eig, gap / tol)
        assert gap <= tol

    # trivial norm and definiteness cases, exact
    M = np.array([[1.0, -2.0], [3.0, 4.0]])
    assert induced_norm(M, "infinity") == 7.0
    assert induced_norm(M, "one") == 6.0
    assert induced_norm(np.diag([3.0, -4.0]), "two") == pytest.approx(4.0, abs=1e-14)
    assert cholesky_negative_definite(-np.eye(3), 0.0) is True
    assert cholesky_negative_definite(np.eye(3), 0.0) is False
    assert spectral_radius(np.eye(3)) == pytest.approx(1.0, abs=1e-12)
    report(
        9,
        True,
        f"eigen oracle worst {worst_eig:.2f}x tolerance",
    )
