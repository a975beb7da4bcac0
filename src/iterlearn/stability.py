"""Stability conditions, separation identities, and robustness certificates.

The library keeps a small catalog of closed-loop spectral-radius
conditions (``eq04`` .. ``eq102``), similarity identities showing that
observer and feedback designs decouple (``eq20`` .. ``eq76``), and block
matrix inequalities whose negative definiteness certifies the spectral
conditions for every admissible structured model error (``eq44``,
``eq65``, ``eq101``).  Certificates are verified exactly; the search is a
Lyapunov-seeded heuristic, not a general-purpose semidefinite solver.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .learner import GainSet
from .matanalysis import as_matrix, is_negative_definite, induced_norm, spectral_radius
from .plant import StructuredUncertainty, TransferPlant, sample_structured_delta

__all__ = [
    "CONDITION_IDS",
    "SEPARATION_IDS",
    "LMI_IDS",
    "CONDITION_DESCRIPTIONS",
    "ConditionReport",
    "LmiCertificate",
    "check_condition",
    "verify_separation",
    "lmi_verify",
    "lmi_search",
    "theorem_implication_check",
    "certificate_to_dict",
    "certificate_from_dict",
    "save_certificate",
    "load_certificate",
]

CONDITION_IDS = ("eq04", "eq17", "eq41", "eq48", "eq62", "eq95", "eq102")
SEPARATION_IDS = ("eq20", "eq30", "eq61", "eq76")
LMI_IDS = ("eq44", "eq65", "eq101")

CONDITION_DESCRIPTIONS = {
    "eq04": "plain learning loop: rho(I - P K) < 1",
    "eq17": "observer loop: rho(Abar - L Cbar) < 1",
    "eq41": "mixed feedback with nominal observer under model error",
    "eq48": "nominal learning loop: rho(I - P0 K) < 1",
    "eq62": "input-boundedness loop of the aggregated-disturbance design",
    "eq95": "surrogate learning loop: rho(I - P~0 K) < 1",
    "eq102": "input-boundedness loop of the model-free design",
}


@dataclass
class ConditionReport:
    condition_id: str
    rho: float
    holds: bool
    matrix_dim: int

    def to_dict(self) -> dict:
        return {
            "condition_id": self.condition_id,
            "rho": self.rho,
            "holds": self.holds,
            "matrix_dim": self.matrix_dim,
        }


def _require(value, name: str, condition_id: str):
    if value is None:
        raise ValueError(f"condition {condition_id} requires {name}")
    return value


def _observer_blocks(gains: GainSet, condition_id: str):
    og = _require(gains.observer, "observer gains", condition_id)
    p = og.p
    I = np.eye(p)
    Z = np.zeros((p, p))
    A_lc = np.block([[I - og.L1, I], [-og.L2, I]])
    Lbar = og.stacked
    F = np.hstack([Z, I])
    Cbar = np.hstack([I, Z])
    return p, A_lc, Lbar, F, Cbar


def check_condition(
    condition_id: str,
    plant: TransferPlant | None = None,
    gains: GainSet | None = None,
    surrogate=None,
) -> ConditionReport:
    """Assemble the block matrix of a catalog condition and test rho < 1."""
    if condition_id not in CONDITION_IDS:
        raise ValueError(f"unknown condition id {condition_id!r}")
    if gains is None:
        raise ValueError(f"condition {condition_id} requires gains")
    K = gains.K

    if condition_id == "eq04":
        P = _require(plant, "a plant", condition_id).full()
        M = np.eye(P.shape[0]) - P @ K
    elif condition_id == "eq48":
        P0 = _require(plant, "a plant", condition_id).nominal
        M = np.eye(P0.shape[0]) - P0 @ K
    elif condition_id == "eq95":
        Ps = as_matrix(_require(surrogate, "a surrogate", condition_id), "surrogate")
        M = np.eye(Ps.shape[0]) - Ps @ K
    elif condition_id == "eq17":
        _, M, _, _, _ = _observer_blocks(gains, condition_id)
    elif condition_id == "eq41":
        plant = _require(plant, "a plant", condition_id)
        H = _require(gains.H, "H", condition_id)
        p, A_lc, Lbar, F, Cbar = _observer_blocks(gains, condition_id)
        P = plant.full()
        Pd = plant.delta
        M = np.block(
            [
                [np.eye(p) - P @ K, -P @ H @ F],
                [Cbar.T @ Pd @ K, A_lc + Cbar.T @ Pd @ H @ F],
            ]
        )
    elif condition_id == "eq62":
        plant = _require(plant, "a plant", condition_id)
        Hbar = _require(gains.Hbar, "Hbar", condition_id)
        p, A_lc, Lbar, F, _ = _observer_blocks(gains, condition_id)
        P = plant.full()
        Pd = plant.delta
        M = np.block([[np.eye(p) - P @ K, Hbar @ F], [-Lbar @ Pd @ K, A_lc]])
    elif condition_id == "eq102":
        plant = _require(plant, "a plant", condition_id)
        Ps = as_matrix(_require(surrogate, "a surrogate", condition_id), "surrogate")
        Hbar = _require(gains.Hbar, "Hbar", condition_id)
        p, A_lc, Lbar, F, _ = _observer_blocks(gains, condition_id)
        Pd = plant.delta
        M = np.block(
            [[np.eye(p) - Pd @ K, Hbar @ F], [Lbar @ (Ps - Pd) @ K, A_lc]]
        )
    else:  # pragma: no cover
        raise AssertionError(condition_id)

    rho = spectral_radius(M)
    return ConditionReport(
        condition_id=condition_id, rho=rho, holds=rho < 1.0, matrix_dim=M.shape[0]
    )


def verify_separation(
    identity_id: str, plant: TransferPlant, gains: GainSet
) -> tuple[float, bool]:
    """Check one similarity identity numerically.

    Assembles the closed-loop matrix of the cited design, applies the
    unit-triangular transformation, and compares against the displayed
    block-triangular target.  Returns the maximum residual (infinity norm
    of the difference) and whether the transformed lower-left block is
    numerically zero (infinity norm below 1e-10).
    """
    if identity_id not in SEPARATION_IDS:
        raise ValueError(f"unknown separation identity {identity_id!r}")
    p, A_lc, Lbar, F, Cbar = _observer_blocks(gains, identity_id)
    K = gains.K
    I = np.eye(p)
    Zp = np.zeros((2 * p, p))

    if identity_id in ("eq20", "eq30"):
        P = plant.full()
        H = _require(gains.H, "H", identity_id)
        Bbar = np.vstack([P, np.zeros_like(P)])
        if identity_id == "eq20":
            Kbar = np.hstack([K, H])
            M = np.block([[I, -P @ Kbar], [Lbar, A_lc - Bbar @ Kbar]])
            target = np.block([[I - P @ K, -P @ Kbar], [Zp, A_lc]])
        else:
            M = np.block(
                [[I - P @ K, -P @ H @ F], [Lbar - Bbar @ K, A_lc - Bbar @ H @ F]]
            )
            target = np.block([[I - P @ K, -P @ H @ F], [Zp, A_lc]])
        T = np.block([[I, np.zeros((p, 2 * p))], [-Cbar.T, np.eye(2 * p)]])
        Tinv = np.block([[I, np.zeros((p, 2 * p))], [Cbar.T, np.eye(2 * p)]])
    elif identity_id == "eq61":
        P0 = plant.nominal
        Hbar = _require(gains.Hbar, "Hbar", identity_id)
        B0 = np.vstack([P0, np.zeros_like(P0)])
        M = np.block(
            [
                [I - P0 @ K, -P0 @ K @ Hbar @ F],
                [Lbar - B0 @ K, A_lc - B0 @ K @ Hbar @ F],
            ]
        )
        target = np.block([[I - P0 @ K, -P0 @ K @ Hbar @ F], [Zp, A_lc]])
        T = np.block([[I, np.zeros((p, 2 * p))], [-Cbar.T, np.eye(2 * p)]])
        Tinv = np.block([[I, np.zeros((p, 2 * p))], [Cbar.T, np.eye(2 * p)]])
    else:  # eq76
        P = plant.full()
        P0 = plant.nominal
        Pd = plant.delta
        Hbar = _require(gains.Hbar, "Hbar", identity_id)
        B0K = np.vstack([P0, np.zeros_like(P0)]) @ K
        M = np.block(
            [
                [I - P @ K, Hbar @ F],
                [(B0K - Lbar) @ P @ K, A_lc - B0K @ Hbar @ F],
            ]
        )
        target = np.block([[I - P @ K, Hbar @ F], [-Lbar @ Pd @ K, A_lc]])
        T = np.block([[I, np.zeros((p, 2 * p))], [B0K, np.eye(2 * p)]])
        Tinv = np.block([[I, np.zeros((p, 2 * p))], [-B0K, np.eye(2 * p)]])

    transformed = T @ M @ Tinv
    max_residual = float(np.abs(transformed - target).max())
    lower_left = transformed[p:, :p]
    block_upper_triangular = bool(np.abs(lower_left).max() < 1e-10)
    return max_residual, block_upper_triangular


# ---------------------------------------------------------------------------
# Block matrix inequalities
# ---------------------------------------------------------------------------

@dataclass
class LmiCertificate:
    """Structured positive-definite ``Q`` and scalar ``tau`` for the
    robustness inequalities.

    The assembled matrix ``[[Q11, Q21^T], [Q21, Q22]]`` must be symmetric
    positive definite and ``tau`` strictly positive; violating either
    makes the certificate invalid (an error), distinct from a valid
    certificate that merely fails an inequality.
    """

    Q11: np.ndarray
    Q21: np.ndarray
    Q22: np.ndarray
    tau: float

    def __post_init__(self):
        self.Q11 = as_matrix(self.Q11, "Q11")
        self.Q21 = as_matrix(self.Q21, "Q21")
        self.Q22 = as_matrix(self.Q22, "Q22")
        p = self.Q11.shape[0]
        if self.Q11.shape != (p, p):
            raise ValueError("Q11 must be square")
        if self.Q21.shape != (2 * p, p):
            raise ValueError("Q21 must be 2p x p")
        if self.Q22.shape != (2 * p, 2 * p):
            raise ValueError("Q22 must be 2p x 2p")
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        Q = self.assembled()
        if np.abs(Q - Q.T).max() > 1e-10 * max(1.0, np.abs(Q).max()):
            raise ValueError("assembled Q must be symmetric")
        if np.linalg.eigvalsh(0.5 * (Q + Q.T)).min() <= 0:
            raise ValueError("assembled Q must be positive definite")

    @property
    def p(self) -> int:
        return self.Q11.shape[0]

    def assembled(self) -> np.ndarray:
        return np.block([[self.Q11, self.Q21.T], [self.Q21, self.Q22]])


def _mirror_blocks(blocks: list[list], dims: list[int]) -> np.ndarray:
    """Assemble a symmetric block matrix from its lower-triangular blocks."""
    n = len(dims)
    grid = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            blk = blocks[i][j]
            if blk is None:
                blk = np.zeros((dims[i], dims[j]))
            grid[i][j] = blk
            if i != j:
                grid[j][i] = blk.T
    return np.block(grid)


def _lmi_ingredients(lmi_id: str, nominal, structure, gains):
    if lmi_id not in LMI_IDS:
        raise ValueError(f"unknown inequality id {lmi_id!r}")
    if isinstance(nominal, TransferPlant):
        P0 = nominal.nominal
    else:
        P0 = as_matrix(nominal, "nominal")
    K = gains.K
    p, A_lc, Lbar, F, Cbar = _observer_blocks(gains, lmi_id)
    if P0.shape[0] != p:
        raise ValueError("nominal map and observer gains disagree on dimension")
    phi1 = structure.phi1
    phi2 = structure.phi2
    if phi1.shape[0] != p or phi2.shape[1] != K.shape[0]:
        raise ValueError("structure dimensions do not match the plant")
    return P0, K, p, A_lc, Lbar, F, Cbar, phi1, phi2


def _assemble_lmi(lmi_id, cert: LmiCertificate, nominal, structure, gains) -> np.ndarray:
    P0, K, p, A_lc, Lbar, F, Cbar, phi1, phi2 = _lmi_ingredients(
        lmi_id, nominal, structure, gains
    )
    if cert.p != p:
        raise ValueError("certificate dimension does not match the problem")
    Q11, Q21, Q22, tau = cert.Q11, cert.Q21, cert.Q22, cert.tau
    q = phi1.shape[1]
    r = phi2.shape[0]
    loop = np.eye(p) - P0 @ K
    dims = [p, 2 * p, p, 2 * p, r, q]
    rows: list[list] = [[None] * 6 for _ in range(6)]
    rows[0][0] = -Q11
    rows[1][0] = -Q21
    rows[1][1] = -Q22
    rows[2][2] = -Q11
    rows[3][2] = -Q21
    rows[3][3] = -Q22
    rows[4][4] = -tau * np.eye(r)
    rows[5][5] = -tau * np.eye(q)
    rows[2][0] = Q11 @ loop
    rows[3][0] = Q21 @ loop
    if lmi_id == "eq44":
        H = gains.H
        if H is None:
            raise ValueError("eq44 requires the compensation gain H")
        HF = H @ F
        rows[2][1] = Q21.T @ A_lc - Q11 @ P0 @ HF
        rows[3][1] = Q22 @ A_lc - Q21 @ P0 @ HF
        rows[4][0] = tau * phi2 @ K
        rows[4][1] = tau * phi2 @ HF
        rows[5][2] = phi1.T @ (Cbar @ Q21 - Q11)
        rows[5][3] = phi1.T @ (Cbar @ Q22 - Q21.T)
    else:  # eq65 and eq101 share one display around their respective maps
        Hbar = gains.Hbar
        if Hbar is None:
            raise ValueError(f"{lmi_id} requires the compensation gain Hbar")
        HbF = Hbar @ F
        rows[2][1] = Q11 @ HbF + Q21.T @ A_lc
        rows[3][1] = Q21 @ HbF + Q22 @ A_lc
        rows[4][0] = tau * phi2 @ K
        rows[5][2] = phi1.T @ (-Q11 - Lbar.T @ Q21)
        rows[5][3] = phi1.T @ (-Q21.T - Lbar.T @ Q22)
    return _mirror_blocks(rows, dims)


def lmi_verify(
    lmi_id: str,
    cert: LmiCertificate,
    nominal,
    structure: StructuredUncertainty,
    gains: GainSet,
) -> bool:
    """Whether a certificate satisfies the cited block inequality.

    The block matrix is assembled exactly as displayed (symmetric stars
    filled by transposition) and tested for negative definiteness with a
    tolerance of ``1e-9`` times its infinity norm.
    """
    G = _assemble_lmi(lmi_id, cert, nominal, structure, gains)
    tol = 1e-9 * induced_norm(G, "infinity")
    return is_negative_definite(G, tol=tol)


def _nominal_closed_matrix(lmi_id, nominal, gains) -> np.ndarray:
    if isinstance(nominal, TransferPlant):
        P0 = nominal.nominal
    else:
        P0 = as_matrix(nominal, "nominal")
    K = gains.K
    p, A_lc, _, F, _ = _observer_blocks(gains, lmi_id)
    loop = np.eye(p) - P0 @ K
    if lmi_id == "eq44":
        if gains.H is None:
            raise ValueError("eq44 requires the compensation gain H")
        upper = -P0 @ gains.H @ F
    else:
        if gains.Hbar is None:
            raise ValueError(f"{lmi_id} requires the compensation gain Hbar")
        upper = gains.Hbar @ F
    return np.block([[loop, upper], [np.zeros((2 * p, p)), A_lc]])


def lmi_search(
    lmi_id: str,
    nominal,
    structure: StructuredUncertainty,
    gains: GainSet,
    budget: int = 200,
) -> LmiCertificate | None:
    """Heuristic certificate search: Lyapunov seed plus a tau grid.

    Seeds ``Q`` from the discrete Lyapunov solution of the nominal closed
    matrix, tries a few block rescalings of that seed, and sweeps ``tau``
    over a log grid, returning the first certificate that verifies.
    Absence of a certificate is a legitimate outcome (None), not an
    error.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    M0 = _nominal_closed_matrix(lmi_id, nominal, gains)
    if spectral_radius(M0) >= 1.0:
        return None
    from scipy.linalg import solve_discrete_lyapunov  # deferred: simulate needs no scipy
    p = gains.observer.p
    Qfull = solve_discrete_lyapunov(M0.T, np.eye(3 * p))
    Qfull = 0.5 * (Qfull + Qfull.T)
    if np.linalg.eigvalsh(Qfull).min() <= 0:
        return None
    Qfull /= induced_norm(Qfull, "two")

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
            if lmi_verify(lmi_id, cert, nominal, structure, gains):
                return cert
    return None


_IMPLIED_CONDITION = {"eq44": "eq41", "eq65": "eq62", "eq101": "eq102"}


def theorem_implication_check(
    lmi_id: str,
    structure: StructuredUncertainty,
    gains: GainSet,
    nominal,
    cert: LmiCertificate,
    samples: int,
    seed: int,
) -> bool:
    """Monte-Carlo check that a verified certificate implies its spectral
    condition for every sampled admissible model error."""
    if not lmi_verify(lmi_id, cert, nominal, structure, gains):
        raise ValueError("certificate does not verify; implication check requires one")
    target = _IMPLIED_CONDITION[lmi_id]
    if isinstance(nominal, TransferPlant):
        P0 = nominal.nominal
    else:
        P0 = as_matrix(nominal, "nominal")
    child_seeds = np.random.SeedSequence(seed).spawn(samples)
    for child in child_seeds:
        delta = sample_structured_delta(structure, child)
        if target == "eq102":
            # model-free: the sampled error is the gap between the true
            # map and the surrogate, so the true map is their sum
            plant_s = TransferPlant(
                nominal=np.zeros_like(P0), delta=P0 + delta
            )
            report = check_condition(target, plant_s, gains, surrogate=P0)
        else:
            plant_s = TransferPlant(nominal=P0, delta=delta)
            report = check_condition(target, plant_s, gains)
        if not report.holds:
            return False
    return True


# ---------------------------------------------------------------------------
# Certificate JSON
# ---------------------------------------------------------------------------

def certificate_to_dict(cert: LmiCertificate) -> dict:
    return {
        "format_version": 1,
        "Q11": cert.Q11.tolist(),
        "Q21": cert.Q21.tolist(),
        "Q22": cert.Q22.tolist(),
        "tau": cert.tau,
    }


def certificate_from_dict(doc: dict) -> LmiCertificate:
    try:
        return LmiCertificate(
            Q11=np.asarray(doc["Q11"], dtype=float),
            Q21=np.asarray(doc["Q21"], dtype=float),
            Q22=np.asarray(doc["Q22"], dtype=float),
            tau=float(doc["tau"]),
        )
    except KeyError as exc:
        raise ValueError(f"certificate file missing field {exc}") from exc


def save_certificate(path, cert: LmiCertificate) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(certificate_to_dict(cert), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_certificate(path) -> LmiCertificate:
    with open(path, "r", encoding="ascii") as fh:
        doc = json.load(fh)
    return certificate_from_dict(doc)
