"""Stability conditions, separation identities, and robustness certificates.

The library keeps a small catalog of closed-loop spectral-radius
conditions (``eq04`` .. ``eq102``), similarity identities showing that
observer and feedback designs decouple (``eq20`` .. ``eq76``), and block
matrix inequalities whose negative definiteness certifies the spectral
conditions for every admissible structured model error (``eq44``,
``eq65``, ``eq101``).  Certificates are verified exactly; the search is a
Lyapunov-seeded heuristic, not a general-purpose semidefinite solver.
Every catalog loop, including the certificate seed and the ``eq30`` and
``eq76`` separation targets, is laid out by ``loop_matrix``;
``verify_separation`` assembles the unseparated loops and the other
targets itself.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .learner import GainSet
from .observer import build_extended, error_dynamics_matrix
from .matanalysis import (
    as_matrix,
    block_spectral_radius,
    check_symmetric,
    cholesky_negative_definite,
    induced_norm,
    is_negative_definite,
    negative_definite_schur_term,
)
from .plant import StructuredUncertainty, TransferPlant, sample_structured_delta

__all__ = [
    "CONDITION_IDS",
    "SEPARATION_IDS",
    "LMI_IDS",
    "CONDITION_DESCRIPTIONS",
    "ConditionReport",
    "LmiCertificate",
    "loop_matrix",
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
    """A condition's spectral radius, verdict and how the radius was found.

    ``method`` is ``"block_triangular"`` when the radius was read from the
    diagonal blocks of a loop that is block triangular in time, else
    ``"dense"`` (see ``matanalysis.block_spectral_radius``); ``margin`` is
    ``1 - rho``, the distance of the verdict from flipping.
    """

    condition_id: str
    rho: float
    holds: bool
    matrix_dim: int
    method: str

    @property
    def margin(self) -> float:
        return 1.0 - self.rho

    def to_dict(self) -> dict:
        return {
            "condition_id": self.condition_id,
            "rho": self.rho,
            "holds": self.holds,
            "matrix_dim": self.matrix_dim,
            "method": self.method,
            "margin": self.margin,
        }


def _require(value, name: str, condition_id: str):
    if value is None:
        raise ValueError(f"condition {condition_id} requires {name}")
    return value


def _observer_blocks(gains: GainSet, condition_id: str, P_used):
    """The observer loop ``A_lc``, the stacked gain ``Lbar`` and the extended
    system around ``P_used``."""
    og = _require(gains.observer, "observer gains", condition_id)
    return error_dynamics_matrix(og), og.stacked, build_extended(og.p, P_used)


def _surrogate(surrogate, condition_id: str) -> np.ndarray:
    return as_matrix(_require(surrogate, "a surrogate", condition_id), "surrogate")


def loop_matrix(
    condition_id: str,
    plant: TransferPlant | None = None,
    gains: GainSet | None = None,
    surrogate=None,
) -> np.ndarray:
    """The block matrix of a catalog condition.

    This is the one place that lays out each design's closed loop.  The
    learning loops are ``I - X K`` with ``X`` the true map (``eq04``), the
    nominal map (``eq48``) or the surrogate (``eq95``); ``eq17`` is the
    observer loop ``A_lc``.  The design with the compensation gain ``H``
    (``eq41``) has its own form; the aggregated-disturbance (``eq62``) and
    model-free (``eq102``) designs share
    ``[[I - P K, Hbar F], [Lbar (P_used - P) K, A_lc]]``, where ``P`` is the
    true map and ``P_used`` the map the observer knows: the nominal map
    (``P_used - P = -delta``) or the surrogate.
    """
    if condition_id not in CONDITION_IDS:
        raise ValueError(f"unknown condition id {condition_id!r}")
    if gains is None:
        raise ValueError(f"condition {condition_id} requires gains")
    K = gains.K
    if condition_id == "eq17":
        return error_dynamics_matrix(_require(gains.observer, "observer gains", condition_id))
    if condition_id == "eq95":
        Ps = _surrogate(surrogate, condition_id)
        return np.eye(Ps.shape[0]) - Ps @ K
    plant = _require(plant, "a plant", condition_id)
    if condition_id == "eq48":
        return np.eye(plant.shape[0]) - plant.nominal @ K
    P = plant.full()
    I = np.eye(P.shape[0])
    if condition_id == "eq04":
        return I - P @ K
    if condition_id == "eq41":
        H = _require(gains.H, "H", condition_id)
        A_lc, _, es = _observer_blocks(gains, condition_id, P)
        CPd = es.Cbar.T @ plant.delta
        return np.block(
            [[I - P @ K, -P @ H @ es.F], [CPd @ K, A_lc + CPd @ H @ es.F]]
        )
    Hbar = _require(gains.Hbar, "Hbar", condition_id)
    if condition_id == "eq62":
        mismatch = -plant.delta
    else:
        mismatch = _surrogate(surrogate, condition_id) - P
    A_lc, Lbar, es = _observer_blocks(gains, condition_id, P)
    return np.block([[I - P @ K, Hbar @ es.F], [Lbar @ mismatch @ K, A_lc]])


def check_condition(
    condition_id: str,
    plant: TransferPlant | None = None,
    gains: GainSet | None = None,
    surrogate=None,
) -> ConditionReport:
    """Spectral radius of a catalog condition's block matrix; holds if < 1.

    Every block of the matrix is ``p x p``, with ``p`` the error dimension
    of the gains, so a lifted loop is solved block by block in time.
    """
    M = loop_matrix(condition_id, plant, gains, surrogate)
    rho, method = block_spectral_radius(M, gains.K.shape[1])
    return ConditionReport(
        condition_id=condition_id,
        rho=rho,
        holds=rho < 1.0,
        matrix_dim=M.shape[0],
        method=method,
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
    P = plant.full()
    P0 = plant.nominal
    # the observer of eq20/eq30 knows the true map, that of eq61/eq76 the nominal
    A_lc, Lbar, es = _observer_blocks(
        gains, identity_id, P if identity_id in ("eq20", "eq30") else P0
    )
    p, F, Bbar = es.p, es.F, es.Bbar_used
    K = gains.K
    I = np.eye(p)
    Zp = np.zeros((2 * p, p))
    shear = -es.Cbar.T

    if identity_id == "eq20":
        H = _require(gains.H, "H", identity_id)
        Kbar = np.hstack([K, H])
        M = np.block([[I, -P @ Kbar], [Lbar, A_lc - Bbar @ Kbar]])
        target = np.block([[I - P @ K, -P @ Kbar], [Zp, A_lc]])
    elif identity_id == "eq30":
        H = _require(gains.H, "H", identity_id)
        M = np.block(
            [[I - P @ K, -P @ H @ F], [Lbar - Bbar @ K, A_lc - Bbar @ H @ F]]
        )
        target = loop_matrix("eq41", TransferPlant(nominal=P), gains)
    elif identity_id == "eq61":
        Hbar = _require(gains.Hbar, "Hbar", identity_id)
        M = np.block(
            [
                [I - P0 @ K, -P0 @ K @ Hbar @ F],
                [Lbar - Bbar @ K, A_lc - Bbar @ K @ Hbar @ F],
            ]
        )
        target = np.block([[I - P0 @ K, -P0 @ K @ Hbar @ F], [Zp, A_lc]])
    else:  # eq76
        Hbar = _require(gains.Hbar, "Hbar", identity_id)
        shear = Bbar @ K
        M = np.block(
            [
                [I - P @ K, Hbar @ F],
                [(shear - Lbar) @ P @ K, A_lc - shear @ Hbar @ F],
            ]
        )
        target = loop_matrix("eq62", plant, gains)

    upper = np.zeros((p, 2 * p))
    T = np.block([[I, upper], [shear, np.eye(2 * p)]])
    Tinv = np.block([[I, upper], [-shear, np.eye(2 * p)]])
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
    positive definite and ``tau`` finite and strictly positive; violating
    either makes the certificate invalid (an error), distinct from a valid
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
        self.tau = float(self.tau)
        if not 0 < self.tau < math.inf:
            raise ValueError(f"tau must be finite and positive, got {self.tau!r}")
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


_IMPLIED_CONDITION = {"eq44": "eq41", "eq65": "eq62", "eq101": "eq102"}


def _robust_loop(lmi_id: str, nominal, structure, gains):
    """The implied condition's loop at zero model error, ``M0``, and the
    channel ``(D, E)`` through which a model error ``delta`` enters it: the
    loop at ``delta`` is ``M0 + D delta E``, with ``D = [-I; Cbar^T]`` and
    ``E = [K, H F]`` for ``eq44``, ``D = [-I; -Lbar]`` and ``E = [K, 0]``
    for ``eq65`` and ``eq101``."""
    if lmi_id not in LMI_IDS:
        raise ValueError(f"unknown inequality id {lmi_id!r}")
    P0 = as_matrix(nominal, "nominal")
    K = gains.K
    og = _require(gains.observer, "observer gains", lmi_id)
    p = og.p
    if P0.shape[0] != p:
        raise ValueError("nominal map and observer gains disagree on dimension")
    if structure.phi1.shape[0] != p or structure.phi2.shape[1] != K.shape[0]:
        raise ValueError("structure dimensions do not match the plant")
    es = build_extended(p, P0)
    if lmi_id == "eq44":
        H = _require(gains.H, "the compensation gain H", lmi_id)
        D, E = np.vstack([-np.eye(p), es.Cbar.T]), np.hstack([K, H @ es.F])
    else:  # eq65 and eq101 share one channel around their respective maps
        _require(gains.Hbar, "the compensation gain Hbar", lmi_id)
        D, E = np.vstack([-np.eye(p), -og.stacked]), np.hstack([K, np.zeros((K.shape[0], 2 * p))])
    M0 = loop_matrix(_IMPLIED_CONDITION[lmi_id], TransferPlant(nominal=P0), gains, P0)
    return M0, D, E


def _lmi_edges(n: int, structure) -> np.ndarray:
    """Block edges of the inequality around a loop of dimension ``n``: blocks
    of sizes ``[n, n, r, q]``, ``r`` rows of ``phi2``, ``q`` columns of ``phi1``."""
    return np.cumsum([0, n, n, structure.phi2.shape[0], structure.phi1.shape[1]])


def _assemble_lmi(Q: np.ndarray, tau: float, loop, structure, out=None) -> np.ndarray:
    """The S-procedure inequality of the loop ``(M0, D, E)`` at ``Q`` and ``tau``:

        [[-Q,              *,                 *,        *     ],
         [Q M0,            -Q,                *,        *     ],
         [tau phi2 E,      0,                 -tau I,   *     ],
         [0,               phi1^T D^T Q,      0,        -tau I]]

    with the stars filled by transposition (see ``_lmi_edges`` for the
    block sizes).  ``tau`` enters only block ``(2, 0)`` (linearly, mirrored
    into block ``(0, 2)``) and the diagonal ``-tau`` of blocks 2 and 3.
    """
    M0, D, E = loop
    if Q.shape != M0.shape:
        raise ValueError("certificate dimension does not match the problem")
    phi1, phi2 = structure.phi1, structure.phi2
    edges = _lmi_edges(len(M0), structure)
    G = np.empty((edges[-1], edges[-1])) if out is None else out
    G.fill(0.0)

    def put(i, j, blk):
        """Block (i, j) of the lower triangle, mirrored by transposition."""
        rows, cols = slice(edges[i], edges[i + 1]), slice(edges[j], edges[j + 1])
        G[rows, cols] = blk
        if i != j:
            G[cols, rows] = G[rows, cols].T

    put(0, 0, -Q)
    put(1, 0, Q @ M0)
    put(1, 1, -Q)
    put(2, 0, tau * phi2 @ E)
    put(2, 2, -tau * np.eye(phi2.shape[0]))
    put(3, 1, phi1.T @ D.T @ Q)
    put(3, 3, -tau * np.eye(phi1.shape[1]))
    return G


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
    loop = _robust_loop(lmi_id, nominal, structure, gains)
    G = _assemble_lmi(cert.assembled(), cert.tau, loop, structure)
    tol = 1e-9 * induced_norm(G, "infinity")
    return is_negative_definite(G, tol=tol)


def _lyapunov_seed(M0: np.ndarray, p: int) -> np.ndarray | None:
    """The search's seed: the discrete Lyapunov solution of the loop ``M0``
    (``p x p`` blocks), scaled to unit 2-norm, or None when that loop is
    not stable."""
    if block_spectral_radius(M0, p)[0] >= 1.0:
        return None
    from scipy.linalg import solve_discrete_lyapunov  # deferred: simulate needs no scipy
    Qfull = solve_discrete_lyapunov(M0.T, np.eye(M0.shape[0]))
    Qfull = 0.5 * (Qfull + Qfull.T)
    if np.linalg.eigvalsh(Qfull).min() <= 0:
        return None
    Qfull /= induced_norm(Qfull, "two")
    return Qfull


def _lmi_grid(Qfull: np.ndarray, loop, structure, work: np.ndarray):
    """The search's candidates in grid order, as ``(Q, tau, G(tau), screened)``.

    For each block rescaling ``Q = D Qfull D`` of the seed, the inequality
    is assembled once, at ``tau = 1``, and checked for symmetry once.  Each
    ``tau`` then overwrites only what depends on it, in place: block
    ``(2, 0)`` becomes ``tau`` times its value at ``tau = 1`` and is
    mirrored by transposition, and the diagonal of blocks 2 and 3 becomes
    ``-tau``.  So ``G`` stays exactly symmetric, and it equals a fresh
    assembly exactly when ``phi2`` is the identity (otherwise to rounding,
    since ``(tau phi2) E`` and ``tau (phi2 E)`` round differently).  One
    ``G`` is reused by every candidate.

    ``screened`` is False when ``G(tau)`` is not negative definite even
    without a tolerance.  The leading ``2n x 2n`` block of ``G`` does not
    depend on ``tau``, so its Schur term ``C`` (``(r + q) x (r + q)``, see
    ``matanalysis.negative_definite_schur_term``) is formed once per
    rescaling, at ``tau = 1``; the trailing rows at ``tau`` are
    ``D_tau = diag(tau I_r, I_q)`` times those at ``tau = 1``, so ``G(tau)``
    is negative definite exactly when the leading block is and
    ``D_tau C D_tau - tau I`` is.  ``work`` is scratch of ``G``'s shape
    (C-contiguous), holding the factors and each screen, used here only
    before a candidate is yielded, so the caller may use it in between.
    """
    p = Qfull.shape[0] // 3
    edges = _lmi_edges(len(Qfull), structure)
    n, k, r = edges[1], edges[2], edges[3] - edges[2]
    row2 = slice(k, k + r)
    diag = np.arange(k, edges[4])
    m = len(diag)
    d_tau = np.ones(m)
    G = np.empty_like(work)
    S = work.reshape(-1)[: m * m].reshape(m, m)
    for scale in (1.0, 0.5, 2.0, 0.25, 4.0):
        d = np.concatenate([np.full(p, scale), np.ones(2 * p)])
        Q = d[:, None] * Qfull
        Q *= d  # D Qfull D, entry by entry in the same order
        _assemble_lmi(Q, 1.0, loop, structure, out=G)
        check_symmetric(G, work)
        at_one = G[row2, :n].copy()
        C = negative_definite_schur_term(G, k, work)
        for tau in np.logspace(-4, 4, 17):
            np.multiply(at_one, tau, out=G[row2, :n])
            G[:n, row2] = G[row2, :n].T
            G[diag, diag] = -tau
            screened = C is not None
            if screened:
                d_tau[:r] = tau
                np.multiply(C, d_tau, out=S)
                S *= d_tau[:, None]
                S.flat[:: m + 1] -= tau
                screened = cholesky_negative_definite(S, 0.0, S)
            yield Q, float(tau), G, screened


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
    over a log grid, returning the first certificate that verifies.  Each
    candidate is first screened on the ``tau``-dependent Schur complement
    of the inequality (see ``_lmi_grid``); one that passes costs one
    in-place Cholesky factorisation of the whole inequality at the
    tolerance ``lmi_verify`` uses, which alone accepts.  The screen tests
    with no tolerance, so it rejects only candidates that test rejects.
    The rescalings are positive definite by congruence with the checked
    seed, so only the returned certificate is built and validated.
    Absence of a certificate is a legitimate outcome (None), not an error.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    loop = _robust_loop(lmi_id, nominal, structure, gains)
    p = gains.observer.p
    Qfull = _lyapunov_seed(loop[0], p)
    if Qfull is None:
        return None
    n = _lmi_edges(len(Qfull), structure)[-1]
    work = np.empty((n, n))
    grid = _lmi_grid(Qfull, loop, structure, work)
    for Q, tau, G, screened in islice(grid, budget):
        if not screened:
            continue
        np.abs(G, out=work)
        tol = 1e-9 * float(work.sum(axis=1).max())  # induced_norm(G, "infinity")
        if cholesky_negative_definite(G, tol, work):
            grid.close()  # frees the Schur term before the certificate is validated
            return LmiCertificate(Q11=Q[:p, :p], Q21=Q[p:, :p], Q22=Q[p:, p:], tau=tau)
    return None


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
    P0 = as_matrix(nominal, "nominal")
    child_seeds = np.random.SeedSequence(seed).spawn(samples)
    for child in child_seeds:
        delta = sample_structured_delta(structure, child)
        plant_s = TransferPlant(nominal=P0, delta=delta)
        if not check_condition(target, plant_s, gains, surrogate=P0).holds:
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


def _json_matrix(M: np.ndarray) -> str:
    """``M`` as ``json.dump(M.tolist(), indent=2)`` lays it out one level
    deep in a document; every entry is finite, so ``float.__repr__`` is
    what ``json`` writes for it."""
    rows = ("[\n      " + ",\n      ".join(map(float.__repr__, row)) + "\n    ]" for row in M.tolist())
    return "[\n    " + ",\n    ".join(rows) + "\n  ]"


def save_certificate(path, cert: LmiCertificate) -> None:
    """Write ``certificate_to_dict(cert)`` as ``json.dump(..., indent=2,
    sort_keys=True)`` and a newline would, byte for byte, without the
    pure-Python encoder."""
    text = (
        f'{{\n  "Q11": {_json_matrix(cert.Q11)},\n  "Q21": {_json_matrix(cert.Q21)},\n'
        f'  "Q22": {_json_matrix(cert.Q22)},\n  "format_version": 1,\n'
        f'  "tau": {float.__repr__(cert.tau)}\n}}\n'
    )
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def load_certificate(path) -> LmiCertificate:
    with open(path, "r", encoding="ascii") as fh:
        doc = json.load(fh)
    return certificate_from_dict(doc)
