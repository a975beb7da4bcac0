"""Stability conditions, separation identities, and robustness certificates.

The library keeps a small catalog of closed-loop spectral-radius
conditions (``eq04`` .. ``eq102``), similarity identities showing that
observer and feedback designs decouple (``eq20`` .. ``eq76``), and block
matrix inequalities whose negative definiteness certifies the spectral
conditions for every admissible structured model error (``eq44``,
``eq65``, ``eq101``).  Certificates are verified exactly; the search is a
Lyapunov-seeded heuristic, not a general-purpose semidefinite solver.
Every catalog loop, every inequality's loop and every separation target
is laid out by ``_robust_form`` as ``M0 + D delta E``, and every
unseparated loop is a law's step, ``learner.law_map``.  The laws run
``eq04`` (``p_type``), ``eq04`` with ``eq17`` (``eso_full_state``, its
observer on the true map), ``eq41`` and ``eq62`` (``eso_mixed`` and
``eso_robust``, on the nominal map) and ``eq102`` (``eso_model_free``).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .learner import DESIGN_GAINS, GainSet, law_map, require_gains
from .observer import error_dynamics_matrix
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
    "ERROR_FREE_IDS",
    "ConditionReport",
    "LmiCertificate",
    "applicable_conditions",
    "certified_inequality",
    "condition_form",
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

CONDITION_IDS = ("eq04", "eq48", "eq17", "eq41", "eq62", "eq95", "eq102")
SEPARATION_IDS = ("eq20", "eq30", "eq61", "eq76")
LMI_IDS = ("eq44", "eq65", "eq101")

#: Each id's design (``DESIGN_GAINS``), the map its loop is built
#: around, the model error that enters it (None: none) and what it states.
_CATALOG = {
    "eq04": ("learning", "nominal", "plant.delta", "plain learning loop: rho(I - P K) < 1"),
    "eq17": ("observer", None, None, "observer loop: rho(Abar - L Cbar) < 1"),
    "eq41": ("compensated", "nominal", "plant.delta", "H design, observer on the nominal map"),
    "eq48": ("learning", "nominal", None, "nominal learning loop: rho(I - P0 K) < 1"),
    "eq62": ("aggregated", "nominal", "plant.delta", "aggregated-disturbance design's input loop"),
    "eq95": ("learning", "surrogate", None, "surrogate learning loop: rho(I - P~0 K) < 1"),
    "eq102": ("aggregated", "surrogate", "P - surrogate", "model-free design's input loop"),
    "eq44": ("compensated", "nominal", "phi1 sigma phi2", "eq41 for every structured error"),
    "eq65": ("aggregated", "nominal", "phi1 sigma phi2", "eq62 for every structured error"),
    "eq101": ("aggregated", "surrogate", "phi1 sigma phi2", "eq102 for every structured error"),
}

#: Conditions no model error enters: their matrix is the loop at zero error.
ERROR_FREE_IDS = tuple(cid for cid in CONDITION_IDS if _CATALOG[cid][2] is None)


def applicable_conditions(gains: GainSet, nominal, surrogate=None) -> list[str]:
    """The catalog conditions of a config, in ``CONDITION_IDS`` order: each
    whose design's gains ``gains`` hold all, whose map exists (a surrogate
    for ``eq95`` and ``eq102``) and that is not an error-free loop around an
    all-zero ``nominal`` (``eq48`` of a model-free plant)."""

    def applies(design, around, error, _):
        return (
            all(getattr(gains, attr) is not None for attr, _ in DESIGN_GAINS[design])
            and (around != "surrogate" or surrogate is not None)
            and (around != "nominal" or error is not None or np.any(nominal))
        )

    return [cid for cid in CONDITION_IDS if applies(*_CATALOG[cid])]


def certified_inequality(condition_ids, nominal, surrogate=None):
    """The inequality ``check`` searches for a config with the conditions
    ``condition_ids`` (in ``CONDITION_IDS`` order), and the map it is built
    around: the inequality at the design and map of the last condition
    that has one (``eq102`` before ``eq62`` before ``eq41``), else
    ``(None, None)``."""
    for cid in reversed(condition_ids):
        for lmi_id in LMI_IDS:
            if _CATALOG[lmi_id][:2] == _CATALOG[cid][:2]:
                return lmi_id, surrogate if _CATALOG[lmi_id][1] == "surrogate" else nominal
    return None, None


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
        return {**asdict(self), "margin": self.margin}


def _require(value, name: str, condition_id: str):
    if value is None:
        raise ValueError(f"condition {condition_id} requires {name}")
    return value


def _robust_form(design: str, P0: np.ndarray, gains: GainSet, cid: str):
    """The one layout of a design's loop around the map ``P0``: the loop at
    zero model error, ``M0``, and the channel ``(D, E)`` through which an
    error ``delta`` enters it, so that the loop at ``delta`` is ``M0 + D delta E``.
    ``learning`` is ``(I - P0 K, -I, K)``; with the observer loop ``A_lc``,
    ``compensated`` (gain ``H``) is ``([[I - P0 K, -P0 H F], [0, A_lc]],
    [-I; Cbar^T], [K, H F])`` and ``aggregated`` (gain ``Hbar``) is
    ``([[I - P0 K, Hbar F], [0, A_lc]], [-I; -Lbar], [K, 0])``, with
    ``Lbar = [L1; L2]``.  The selectors ``F = [0, I]`` and
    ``Cbar^T = [I; 0]`` are placed, not multiplied.  ``observer`` is
    ``(A_lc, None, None)``.  A design's gain that ``gains`` lack
    (``learner.DESIGN_GAINS``) raises ``ValueError``.
    """
    require_gains(design, gains, f"condition {cid}")
    K, og = gains.K, gains.observer
    if design == "observer":
        return error_dynamics_matrix(og), None, None
    p = P0.shape[0]
    I = np.eye(p)
    learning = I - P0 @ K if P0.any() else I
    if design == "learning":
        return learning, -I, K
    if og.p != p:
        raise ValueError("nominal map and observer gains disagree on dimension")
    M0, D, E = np.zeros((3 * p, 3 * p)), np.zeros((3 * p, p)), np.zeros((K.shape[0], 3 * p))
    M0[:p, :p], M0[p:, p:], D[:p], E[:, :p] = learning, error_dynamics_matrix(og), -I, K
    if design == "compensated":
        M0[:p, 2 * p :], D[p : 2 * p], E[:, 2 * p :] = -P0 @ gains.H, I, gains.H
    else:
        M0[:p, 2 * p :] = gains.Hbar
        D[p:] = -og.stacked
    return M0, D, E


def _at_error(loop, delta: np.ndarray) -> np.ndarray:
    """``M0 + D delta E``, adding ``D (delta E_j)`` only on the column blocks
    ``E_j`` of ``E`` (each as wide as ``delta`` is tall) that are not zero.
    The top block of ``D`` is ``-I`` in every design, so ``delta E_j`` is
    subtracted there and only the rows below it are multiplied."""
    M0, D, E = loop
    M, p = M0.copy(), D.shape[1]
    for j in range(0, E.shape[1], p):
        if E[:, j : j + p].any():
            dE = delta @ E[:, j : j + p]
            M[:p, j : j + p] -= dE
            M[p:, j : j + p] += D[p:] @ dE
    return M


def condition_form(
    condition_id: str,
    plant: TransferPlant | None = None,
    gains: GainSet | None = None,
    surrogate=None,
):
    """A catalog condition's loop before any model error enters it: the map
    it is built around and its layout ``(M0, D, E)`` there, from
    ``_robust_form`` for the design ``_CATALOG`` names (``eq17``: None and
    ``(A_lc, None, None)``).  It reads the gains, the surrogate and the
    plant's nominal map only, so one form serves every plant that shares
    them."""
    if condition_id not in CONDITION_IDS:
        raise ValueError(f"unknown condition id {condition_id!r}")
    if gains is None:
        raise ValueError(f"condition {condition_id} requires gains")
    design, around, _, _ = _CATALOG[condition_id]
    X = None
    if around == "surrogate":
        X = as_matrix(_require(surrogate, "a surrogate", condition_id), "surrogate")
    elif around == "nominal":
        X = _require(plant, "a plant", condition_id).nominal
    return X, _robust_form(design, X, gains, condition_id)


def loop_matrix(
    condition_id: str,
    plant: TransferPlant | None = None,
    gains: GainSet | None = None,
    surrogate=None,
    form=None,
) -> np.ndarray:
    """The block matrix of a catalog condition.

    ``eq17`` is the observer loop ``A_lc``.  Every other condition is its
    design's loop (``_CATALOG``) from ``_robust_form``, around the plant's
    nominal map or the surrogate, at the model error the catalog names:
    the plant's ``delta``, or the true map minus the surrogate (``eq102``).
    So ``eq04`` is ``I - P K`` with ``P`` the true map, and the model-free
    loop reads the same whether a plant is ``nominal + delta`` or ``0 + P``.
    ``form``, when given, is the condition's ``condition_form`` for the
    same gains, surrogate and nominal map, and is not built again.
    """
    X, loop = condition_form(condition_id, plant, gains, surrogate) if form is None else form
    error = _CATALOG[condition_id][2]
    if error is None:
        return loop[0]
    plant = _require(plant, "a plant", condition_id)
    return _at_error(loop, plant.delta if error == "plant.delta" else plant.full() - X)


def check_condition(
    condition_id: str,
    plant: TransferPlant | None = None,
    gains: GainSet | None = None,
    surrogate=None,
    form=None,
) -> ConditionReport:
    """Spectral radius of a catalog condition's block matrix; holds if < 1.

    Every block of the matrix is ``p x p``, with ``p`` the error dimension
    of the gains, so a lifted loop is solved block by block in time.
    ``form`` is as in ``loop_matrix``.
    """
    M = loop_matrix(condition_id, plant, gains, surrogate, form)
    rho, method = block_spectral_radius(M, gains.K.shape[1])
    return ConditionReport(
        condition_id=condition_id, rho=rho, holds=rho < 1.0, matrix_dim=M.shape[0], method=method
    )


def verify_separation(
    identity_id: str, plant: TransferPlant, gains: GainSet
) -> tuple[float, bool]:
    """Check one similarity identity numerically: ``T M T^-1`` against its
    block-triangular ``_robust_form`` target.  ``M`` is a law's
    ``learner.law_map``: ``eq20`` ``eso_full_state`` and ``eq30``
    ``eso_mixed`` on the true map, ``eq61`` ``eso_robust`` at ``P = P0``,
    and ``eq76`` ``eso_robust`` with its observer on ``P0``, in the
    coordinates ``[(P K)^-1 E; -e_hat; -d_hat]``.  Returns the maximum
    residual (infinity norm) and whether the transformed lower-left block
    is numerically zero (infinity norm below 1e-10).
    """
    if identity_id not in SEPARATION_IDS:
        raise ValueError(f"unknown separation identity {identity_id!r}")
    P, P0, K = plant.full(), plant.nominal, gains.K
    p = P.shape[0]
    T = np.eye(3 * p)
    T[p : 2 * p, :p] = -np.eye(p)  # [[I, 0], [-Cbar^T, I]]
    if identity_id == "eq76":
        M, target = law_map("eso_robust", P, gains, P0), loop_matrix("eq62", plant, gains)
        # [[I, 0], [Bbar K, I]] after the coordinates diag((P K)^-1, -I)
        T[:p, :p] = np.linalg.inv(P @ K)
        T[p : 2 * p, :p] = P0 @ K @ T[:p, :p]
        T[p:, p:] = -np.eye(2 * p)
    elif identity_id == "eq61":
        M = law_map("eso_robust", P0, gains)
        target = _robust_form("compensated", P0, replace(gains, H=K @ gains.Hbar), identity_id)[0]
    else:
        M = law_map("eso_full_state" if identity_id == "eq20" else "eso_mixed", P, gains)
        target = _robust_form("compensated", P, gains, identity_id)[0]
        if identity_id == "eq20":  # the law feeds e_hat where eq30's feeds E
            target[:p, p : 2 * p] = -P @ K
    transformed = T @ M @ np.linalg.inv(T)
    max_residual = float(np.abs(transformed - target).max())
    return max_residual, bool(np.abs(transformed[p:, :p]).max() < 1e-10)


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


def _robust_loop(lmi_id: str, nominal, structure, gains):
    """The inequality's loop ``(M0, D, E)`` around ``nominal``, from
    ``_robust_form`` for the design ``_CATALOG`` names."""
    if lmi_id not in LMI_IDS:
        raise ValueError(f"unknown inequality id {lmi_id!r}")
    P0 = as_matrix(nominal, "nominal")
    if structure.phi1.shape[0] != P0.shape[0] or structure.phi2.shape[1] != gains.K.shape[0]:
        raise ValueError("structure dimensions do not match the plant")
    return _robust_form(_CATALOG[lmi_id][0], P0, gains, lmi_id)


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
    return _verifies(_robust_loop(lmi_id, nominal, structure, gains), cert, structure)


def _verifies(loop, cert: LmiCertificate, structure) -> bool:
    G = _assemble_lmi(cert.assembled(), cert.tau, loop, structure)
    return is_negative_definite(G, tol=1e-9 * induced_norm(G, "infinity"))


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
    loop = _robust_loop(lmi_id, nominal, structure, gains)
    p = gains.observer.p
    Qfull = _lyapunov_seed(loop[0], p)
    if Qfull is None:
        return None
    n = _lmi_edges(len(Qfull), structure)[-1]
    work = np.empty((n, n))
    grid = _lmi_grid(Qfull, loop, structure, work)
    for Q, tau, G, screened in grid:
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
    condition for every sampled admissible model error ``delta``: the loop
    ``M0 + D delta E`` must have a spectral radius below one."""
    loop = _robust_loop(lmi_id, nominal, structure, gains)
    if not _verifies(loop, cert, structure):
        raise ValueError("certificate does not verify; implication check requires one")
    for child in np.random.SeedSequence(seed).spawn(samples):
        M = _at_error(loop, sample_structured_delta(structure, child))
        if block_spectral_radius(M, gains.K.shape[1])[0] >= 1.0:
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


def _numbers(rows, name: str) -> np.ndarray:
    """A JSON array of equally long arrays of numbers (not booleans) as floats."""
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and len(row) == len(rows[0])
        and all(type(x) in (int, float) for x in row)
        for row in rows
    ):
        raise ValueError(f"{name} must be a rectangular nested array of numbers")
    return np.asarray(rows, dtype=float)


def certificate_from_dict(doc) -> LmiCertificate:
    """The certificate of a parsed certificate file; ``ValueError`` if malformed."""
    if not isinstance(doc, dict):
        raise ValueError(f"certificate file must be a JSON object, got {type(doc).__name__}")
    for name in ("Q11", "Q21", "Q22", "tau"):
        if name not in doc:
            raise ValueError(f"certificate file missing field {name!r}")
    if type(doc["tau"]) not in (int, float):
        raise ValueError(f"tau must be a number, got {json.dumps(doc['tau'])}")
    Q11, Q21, Q22 = (_numbers(doc[name], name) for name in ("Q11", "Q21", "Q22"))
    return LmiCertificate(Q11=Q11, Q21=Q21, Q22=Q22, tau=doc["tau"])


def _json_matrix(M: np.ndarray) -> str:
    """``M`` as ``json.dump(M.tolist(), indent=2)`` lays it out one level
    deep in a document; every entry is finite, so ``float.__repr__`` is
    what ``json`` writes for it, and what ``str`` of a row's list writes
    between its ``", "``."""
    rows = (
        "[\n      " + str(row)[1:-1].replace(", ", ",\n      ") + "\n    ]" for row in M.tolist()
    )
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
