"""Oracles for the benchmark, written apart from the iterlearn engine.

Everything here is derived from the definitions the library documents,
not from its code: the cumulative-sine drift as a ``cumsum``, the lifted
plant from its Markov parameters ``C A^(i-j) B``, the update laws of the
``learner`` docstring stepped one iteration at a time, and the spectral
radius of the catalog loops from their diagonal blocks.  Only numpy is
used, so the oracles share no code path with the program they check.
"""

from __future__ import annotations

import numpy as np

#: The reference benchmark plant (see ``iterlearn.presets``).
REFERENCE_A = np.array([[0.72, 0.0, 0.0], [1.0, -1.04, -0.81], [0.0, 0.81, 0.0]])
REFERENCE_B = np.array([[1.0], [0.0], [0.0]])
REFERENCE_C = np.array([[1.0, -0.98, -1.09]])
REFERENCE_LEVEL = 0.3
SURROGATE_DIAGONALS = (1.0, -0.5, -0.25)
K_SCALE = 0.5
L1_SCALE = 0.9
L2_SCALE = 0.1


def perturbed_abc(seed: int, level: float = REFERENCE_LEVEL):
    """Elementwise draw ``M * (1 + level * xi)`` of A, B and C, in that order."""
    rng = np.random.default_rng(seed)
    return tuple(
        M * (1.0 + level * rng.uniform(-1.0, 1.0, size=M.shape))
        for M in (REFERENCE_A, REFERENCE_B, REFERENCE_C)
    )


def markov_lift(A, B, C, horizon: int) -> np.ndarray:
    """Lifted map with block ``(i, j) = C A^(i-j) B`` for ``i >= j``."""
    no, ni = C.shape[0], B.shape[1]
    markov = []
    x = B
    for _ in range(horizon):
        markov.append(C @ x)
        x = A @ x
    P = np.zeros((horizon * no, horizon * ni))
    for i in range(horizon):
        for j in range(i + 1):
            P[i * no : (i + 1) * no, j * ni : (j + 1) * ni] = markov[i - j]
    return P


def true_plant(seed: int, horizon: int) -> np.ndarray:
    return markov_lift(*perturbed_abc(seed), horizon)


def surrogate(horizon: int) -> np.ndarray:
    S = np.zeros((horizon, horizon))
    for offset, value in enumerate(SURROGATE_DIAGONALS):
        S += value * np.eye(horizon, k=-offset)
    return S


def reference_gains(horizon: int) -> dict:
    """``K = 0.5 inv(S)``, ``Hbar = inv(S K)`` and the diagonal observer gains."""
    S = surrogate(horizon)
    K = K_SCALE * np.linalg.inv(S)
    I = np.eye(horizon)
    return {
        "S": S,
        "K": K,
        "Hbar": np.linalg.inv(S @ K),
        "L1": L1_SCALE * I,
        "L2": L2_SCALE * I,
    }


def target(horizon: int) -> np.ndarray:
    t = np.arange(1, horizon + 1)
    return np.sin(8.0 * t / horizon)


def cumulative_sine(iterations: int, dimension: int) -> np.ndarray:
    """Rows ``N_0 .. N_iterations``, every entry ``sum_{i<=k} sin(i/200)/sqrt(i+1)``."""
    i = np.arange(iterations + 1)
    entry = np.cumsum(np.sin(i / 200.0) / np.sqrt(i + 1.0))
    return np.repeat(entry[:, None], dimension, axis=1)


def reference_loop(P, r, N, law: str, gains: dict) -> dict:
    """Step one law for ``len(N) - 1`` iterations from ``U_0 = 0``.

    ``p_type`` applies ``U + K E``.  ``eso_model_free`` applies
    ``U + K (E + Hbar d^)`` and advances the observer with the surrogate:
    ``e^ <- (I - L1) e^ + d^ + S ubar + L1 E`` and
    ``d^ <- d^ - L2 e^ + L2 E``, where ``ubar = U_k - U_{k+1}``.
    Returns the per-iteration ``err_inf`` and ``u_norm``, and ``u_peak``,
    the largest ``|U_k|_inf`` for k = 0..len(N) - 1 (the final input too).
    """
    K, Hbar, S, L1, L2 = (gains[k] for k in ("K", "Hbar", "S", "L1", "L2"))
    p, m = P.shape
    iterations = N.shape[0] - 1
    U = np.zeros(m)
    e_hat = np.zeros(p)
    d_hat = np.zeros(p)
    err_inf = np.empty(iterations)
    u_norm = np.empty(iterations)
    for k in range(iterations):
        E = r - (P @ U + N[k])
        err_inf[k] = np.abs(E).max()
        u_norm[k] = np.abs(U).max()
        if law == "p_type":
            ubar = -K @ E
        elif law == "eso_model_free":
            ubar = -K @ (E + Hbar @ d_hat)
            e_hat, d_hat = (
                e_hat - L1 @ e_hat + d_hat + S @ ubar + L1 @ E,
                d_hat - L2 @ e_hat + L2 @ E,
            )
        else:
            raise ValueError(f"no reference loop for law {law!r}")
        U = U - ubar
    u_peak = max(float(u_norm.max(initial=0.0)), float(np.abs(U).max()))
    return {"err_inf": err_inf, "u_norm": u_norm, "u_peak": u_peak}


# ---------------------------------------------------------------------------
# Catalog loops and their exact spectral radius
# ---------------------------------------------------------------------------

def catalog_blocks(condition_id: str, P, gains: dict) -> list[list[np.ndarray]]:
    """The catalog loop matrix as a grid of ``T x T`` blocks.

    ``P`` is the true lifted map of a model-free plant (zero nominal
    part, so the model error equals ``P``).
    """
    K, Hbar, S, L1, L2 = (gains[k] for k in ("K", "Hbar", "S", "L1", "L2"))
    I = np.eye(P.shape[0])
    Z = np.zeros_like(I)
    if condition_id == "eq04":
        return [[I - P @ K]]
    if condition_id == "eq95":
        return [[I - S @ K]]
    if condition_id == "eq17":
        return [[I - L1, I], [-L2, I]]
    if condition_id == "eq62":
        return [
            [I - P @ K, Z, Hbar],
            [-L1 @ P @ K, I - L1, I],
            [-L2 @ P @ K, -L2, I],
        ]
    if condition_id == "eq102":
        G = (S - P) @ K
        return [
            [I - P @ K, Z, Hbar],
            [L1 @ G, I - L1, I],
            [L2 @ G, -L2, I],
        ]
    raise ValueError(f"no oracle for condition {condition_id!r}")


def assert_lower_triangular_toeplitz(M: np.ndarray, name: str) -> None:
    """Upper part exactly zero; each diagonal constant up to rounding."""
    if np.any(np.triu(M, 1) != 0.0):
        raise AssertionError(f"{name} is not exactly lower triangular")
    scale = max(1.0, float(np.abs(M).max()))
    for k in range(M.shape[0]):
        d = np.diagonal(M, -k)
        if np.ptp(d) > 1e-12 * scale:
            raise AssertionError(f"{name} is not Toeplitz along diagonal -{k}")


def exact_rho(blocks: list[list[np.ndarray]]) -> float:
    """Spectral radius of a block matrix whose blocks are all lower triangular.

    After a time-major permutation the matrix is block lower triangular,
    so its spectrum is the union of the spectra of the small diagonal
    blocks ``[X_ab[t, t]]``.  Those blocks are equal up to rounding when
    the inputs are Toeplitz; every one of them is evaluated anyway.
    """
    n = len(blocks)
    for a in range(n):
        for b in range(n):
            if np.any(np.triu(blocks[a][b], 1) != 0.0):
                raise AssertionError(f"block ({a}, {b}) is not lower triangular")
    diag = np.array([[np.diagonal(blocks[a][b]) for b in range(n)] for a in range(n)])
    small = np.moveaxis(diag, 2, 0)  # (T, n, n)
    return float(np.abs(np.linalg.eigvals(small)).max())


def dense_rho(blocks: list[list[np.ndarray]]) -> float:
    return float(np.abs(np.linalg.eigvals(np.block(blocks))).max())


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

def certificate_q(doc: dict) -> np.ndarray:
    Q11 = np.asarray(doc["Q11"], dtype=float)
    Q21 = np.asarray(doc["Q21"], dtype=float)
    Q22 = np.asarray(doc["Q22"], dtype=float)
    return np.block([[Q11, Q21.T], [Q21, Q22]])


def certificate_problems(
    doc: dict, gains: dict, phi1, phi2, seed: int, samples: int
) -> list[str]:
    """Why a found model-free certificate is not trustworthy (empty if it is).

    Q must be symmetric positive definite and ``tau`` positive, and for
    sampled admissible errors ``S + phi1 sigma phi2`` with
    ``||sigma||_2 <= 1`` the model-free loop must have a dense spectral
    radius below one.
    """
    problems = []
    Q = certificate_q(doc)
    if np.abs(Q - Q.T).max() > 1e-10 * max(1.0, np.abs(Q).max()):
        problems.append("Q is not symmetric")
    elif np.linalg.eigvalsh(Q).min() <= 0.0:
        problems.append("Q is not positive definite")
    if not float(doc["tau"]) > 0.0:
        problems.append("tau is not positive")
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        sigma = rng.uniform(-1.0, 1.0, size=(phi1.shape[1], phi2.shape[0]))
        sigma /= max(1.0, np.linalg.norm(sigma, 2))
        P = gains["S"] + phi1 @ sigma @ phi2
        rho = dense_rho(catalog_blocks("eq102", P, gains))
        if not rho < 1.0:
            problems.append(f"sampled admissible error gives rho {rho:.6g} >= 1")
    return problems
