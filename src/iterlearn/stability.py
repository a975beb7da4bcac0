"""Stability conditions, separation identities, and robustness certificates.

The library keeps a small catalog of closed-loop spectral-radius
conditions (``eq04`` .. ``eq102``), similarity identities showing that
observer and feedback designs decouple (``eq20`` .. ``eq76``, which the
tests check numerically), and block
matrix inequalities whose negative definiteness certifies the spectral
conditions for every admissible structured model error (``eq44``,
``eq65``, ``eq101``).  One test, ``_accepts``, decides whether an
inequality holds, for ``lmi_verify`` and for every candidate of the
search: the Schur split at its leading block, from its blocks, so the
whole inequality is never formed.  Below ``lmi_search`` and ``lmi_verify``
every matrix is a stack of time steps (``_steps``; a loop that couples
steps is one step).  The search is a heuristic seeded by the discrete
Lyapunov (Stein) solution of the loop, not a semidefinite solver.
Every catalog loop, every inequality's loop and every separation target
is laid out by ``_robust_form`` as ``M0 + D delta E``, and
``condition_reports`` builds each ``M0`` once for plants that share a
nominal map and gain set; the tests check each unseparated loop against
its law's step in the engine.  The laws run
``eq04`` (``p_type``), ``eq04`` with ``eq17`` (``eso_full_state``, its
observer on the true map), ``eq41`` and ``eq62`` (``eso_mixed`` and
``eso_robust``, on the nominal map) and ``eq102`` (``eso_model_free``).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .learner import DESIGN_GAINS, GainSet, require_gains
from .observer import error_dynamics_matrix
from .matanalysis import (
    as_matrix,
    block_spectral_radius,
    cholesky_negative_definite,
    negative_definite_schur_term,
    time_steps,
)
from .plant import StructuredUncertainty, TransferPlant

__all__ = [
    "CONDITION_IDS",
    "SEPARATION_IDS",
    "LMI_IDS",
    "ConditionReport",
    "LmiCertificate",
    "applicable_conditions",
    "certified_inequality",
    "loop_matrix",
    "check_condition",
    "condition_reports",
    "lmi_verify",
    "lmi_search",
    "certificate_to_dict",
    "save_certificate",
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


def certified_inequality(gains: GainSet, nominal, surrogate=None):
    """The inequality ``check`` searches for a config, and the map it is
    built around: the inequality at the design and map of the last of its
    ``applicable_conditions`` that has one (``eq102`` before ``eq62`` before
    ``eq41``), else ``(None, None)``."""
    for cid in reversed(applicable_conditions(gains, nominal, surrogate)):
        for lmi_id in LMI_IDS:
            if _CATALOG[lmi_id][:2] == _CATALOG[cid][:2]:
                return lmi_id, surrogate if _CATALOG[lmi_id][1] == "surrogate" else nominal
    return None, None


@dataclass
class ConditionReport:
    """A condition's spectral radius, verdict and how the radius was found.

    ``method`` is ``"block_triangular"`` when the radius was read from the
    diagonal blocks of a loop that is block triangular in time,
    ``"non_finite"`` when the loop overflowed (``rho`` is then infinite),
    else ``"dense"`` (see ``matanalysis.block_spectral_radius``); ``margin`` is
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
    (``learner.DESIGN_GAINS``) raises ``ValueError``.  A product that
    overflows leaves the loop infinite, with no warning.
    """
    require_gains(design, gains, f"condition {cid}")
    K, og = gains.K, gains.observer
    if design == "observer":
        return error_dynamics_matrix(og), None, None
    p = P0.shape[0]
    I = np.eye(p)
    with np.errstate(over="ignore", invalid="ignore"):
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


def _form(condition_id: str, plant: TransferPlant | None, gains: GainSet | None, surrogate):
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


def _loop_at(condition_id: str, form, plant: TransferPlant | None) -> np.ndarray:
    """The condition's matrix: its ``_form`` at the model error of ``plant``
    that the catalog names."""
    X, loop = form
    error = _CATALOG[condition_id][2]
    if error is None:
        return loop[0]
    plant = _require(plant, "a plant", condition_id)
    with np.errstate(over="ignore", invalid="ignore"):
        return _at_error(loop, plant.delta if error == "plant.delta" else plant.full() - X)


def _report(condition_id: str, M: np.ndarray, gains: GainSet) -> ConditionReport:
    """The report of the condition's matrix ``M``, solved block by block in
    time; a matrix that is not finite reads ``rho`` infinite."""
    if np.isfinite(M).all():
        rho, method = block_spectral_radius(M, gains.K.shape[1])
    else:
        rho, method = math.inf, "non_finite"
    return ConditionReport(
        condition_id=condition_id, rho=rho, holds=rho < 1.0, matrix_dim=M.shape[0], method=method
    )


def loop_matrix(
    condition_id: str,
    plant: TransferPlant | None = None,
    gains: GainSet | None = None,
    surrogate=None,
) -> np.ndarray:
    """The block matrix of a catalog condition.

    ``eq17`` is the observer loop ``A_lc``.  Every other condition is its
    design's loop (``_CATALOG``) from ``_robust_form``, around the plant's
    nominal map or the surrogate, at the model error the catalog names:
    the plant's ``delta``, or the true map minus the surrogate (``eq102``).
    So ``eq04`` is ``I - P K`` with ``P`` the true map, and the model-free
    loop reads the same whether a plant is ``nominal + delta`` or ``0 + P``.
    """
    return _loop_at(condition_id, _form(condition_id, plant, gains, surrogate), plant)


def check_condition(
    condition_id: str,
    plant: TransferPlant | None = None,
    gains: GainSet | None = None,
    surrogate=None,
) -> ConditionReport:
    """Spectral radius of a catalog condition's block matrix; holds if < 1.

    Every block of the matrix is ``p x p``, with ``p`` the error dimension
    of the gains, so a lifted loop is solved block by block in time.  A
    matrix that is not finite (the loop overflowed) is a verdict, not an
    error: ``rho`` is infinite and the condition does not hold.
    """
    return _report(condition_id, loop_matrix(condition_id, plant, gains, surrogate), gains)


def condition_reports(plants, gains: GainSet, surrogate=None) -> list[list[ConditionReport]]:
    """Each plant's reports (``check_condition``) of the conditions that
    apply (``applicable_conditions``), for one or more plants that share one
    nominal map and the gain set ``gains``.  Each condition's loop at zero
    model error is built once, and so is the report of a condition that no
    model error enters; per plant only its error is added and the radius
    solved."""
    reports = [[] for _ in plants]
    for cid in applicable_conditions(gains, plants[0].nominal, surrogate):
        form = _form(cid, plants[0], gains, surrogate)
        shared = _CATALOG[cid][2] is None and _report(cid, _loop_at(cid, form, None), gains)
        for plant_reports, a_plant in zip(reports, plants):
            plant_reports.append(shared or _report(cid, _loop_at(cid, form, a_plant), gains))
    return reports


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
    certificate that merely fails an inequality.  Symmetry is to
    ``1e-10 max(1, |Q|_max)``, and the blocks ``Q11`` and ``Q22`` are kept
    symmetrised, ``(X + X^T) / 2``, so that ``Q`` and every inequality
    assembled from it are exactly symmetric (an exactly symmetric block is
    kept bit for bit).  Positive definiteness of that ``Q``, with no
    tolerance, is decided by its Cholesky factorisation
    (``matanalysis.cholesky_negative_definite`` on ``-Q``).
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
        S = Q + Q.T
        S *= 0.5
        self.Q11, self.Q22 = S[:p, :p], S[p:, p:]
        if not cholesky_negative_definite(np.negative(S, out=Q)):
            raise ValueError("assembled Q must be positive definite")

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


def _steps(p: int, *Ms: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each matrix of ``Ms`` as a stack of time steps: its ``p`` steps
    (``matanalysis.time_steps``) when every one of ``Ms`` couples no two
    time steps, else the whole matrix as one step, ``M[None]``.  Read
    time-major, each matrix is block diagonal in the steps of its stack."""
    read = [time_steps(M, p) for M in Ms]
    if all(structure == "decoupled" for _, structure in read):
        return tuple(steps for steps, _ in read)
    return tuple(M[None] for M in Ms)


def _scatter(Qs: np.ndarray) -> np.ndarray:
    """The matrix whose stack of time steps (``_steps``) is ``Qs``."""
    (s, c, _), t = Qs.shape, np.arange(len(Qs))
    Q = np.zeros((c, s, c, s))
    Q[:, t, :, t] = Qs
    return Q.reshape(c * s, c * s)


class _LmiBlocks(NamedTuple):
    """The blocks of the S-procedure inequality of a loop ``(M0, D, E)`` at
    ``Q``, at ``tau = 1``, per time step (``_steps``): the steps of ``Q``
    and ``Q M0``, and the rows of ``(phi2 E)^T`` and ``(phi1^T D^T Q)^T``
    at each.  At ``tau`` the inequality is

        [[-Q,              *,                 *,        *     ],
         [Q M0,            -Q,                *,        *     ],
         [tau phi2 E,      0,                 -tau I,   *     ],
         [0,               phi1^T D^T Q,      0,        -tau I]]

    with the stars filled by transposition; it is never formed.  Its
    leading ``2n x 2n`` block ``S11`` does not depend on ``tau``, and its
    trailing rows ``S21`` at ``tau`` are ``D_tau = diag(tau I_r, I_q)``
    times those at ``tau = 1``, ``r`` rows of ``phi2`` and ``q`` columns of
    ``phi1``."""

    Q: np.ndarray
    QM0: np.ndarray
    phi2E_T: np.ndarray
    phi1DQ_T: np.ndarray


def _structure_steps(loop, structure, s: int) -> tuple[np.ndarray, np.ndarray]:
    """``(phi2 E)^T`` and ``phi1^T D^T`` of the loop ``(M0, D, E)`` per step
    of a stack of ``s`` (column ``i s + t`` is ``[t, :, i]`` before the
    transpose), formed once per search or verification: no ``Q`` enters
    them.  A product that overflows warns nowhere: its tolerance is not
    finite, which rejects it (``_accepts``)."""
    _, D, E = loop
    with np.errstate(over="ignore", invalid="ignore"):
        A, W = (
            X.reshape(len(X), -1, s).transpose(2, 0, 1)
            for X in (structure.phi2 @ E, structure.phi1.T @ D.T)
        )
    return np.swapaxes(A, 1, 2), W


def _lmi_blocks(Qs: np.ndarray, M0s: np.ndarray, A_T, W) -> _LmiBlocks:
    """The inequality's blocks (``_LmiBlocks``) at the stack ``Qs``, on the
    loop's stack ``M0s`` of the same steps and its ``_structure_steps``."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _LmiBlocks(Qs, Qs @ M0s, A_T, np.swapaxes(W @ Qs, 1, 2))


def _tolerance(blocks: _LmiBlocks, tau: float) -> float:
    """``1e-9 |G(tau)|_inf``, the largest absolute row sum of the
    inequality, from its blocks' absolute row and column sums at each step
    (``Q`` is symmetric).  Not finite when a sum overflows, with no warning."""
    Q, QM0, A_T, B_T = (np.abs(X) for X in blocks)
    with np.errstate(over="ignore", invalid="ignore"):
        q_rows = Q.sum(axis=2)
        rows = (
            q_rows + QM0.sum(axis=1) + tau * A_T.sum(axis=2),
            QM0.sum(axis=2) + q_rows + B_T.sum(axis=2),
            tau * A_T.sum(axis=(0, 1)) + tau,
            B_T.sum(axis=(0, 1)) + tau,
        )
        return 1e-9 * float(np.max([X.max() for X in rows]))


def _schur_term(blocks: _LmiBlocks, tol: float) -> np.ndarray | None:
    """The Schur term ``S21 (-S11 - tol I)^-1 S21^T`` of the inequality at
    ``tau = 1`` (``(r + q) x (r + q)``), or None when ``S11 + tol I`` is not
    negative definite (``matanalysis.negative_definite_schur_term``).

    Time-major, ``S11`` is block diagonal in the steps of the blocks: it
    is passed as the ``(s, 2c, 2c)`` stack of its steps, with the rows of
    ``S21^T`` at each step, and factored by one batched Cholesky.  An
    overflow warns nowhere: it leaves the term not finite."""
    Q, QM0, A_T, B_T = blocks
    s, c, r = A_T.shape
    S11 = np.empty((s, 2 * c, 2 * c))
    S11[:, :c, :c] = S11[:, c:, c:] = -Q
    S11[:, c:, :c] = QM0
    S11[:, :c, c:] = np.swapaxes(QM0, 1, 2)
    S21T = np.zeros((s, 2 * c, r + B_T.shape[2]))
    S21T[:, :c, :r], S21T[:, c:, r:] = A_T, B_T
    diag = np.arange(2 * c)
    S11[:, diag, diag] += tol
    with np.errstate(over="ignore", invalid="ignore"):
        return negative_definite_schur_term(S11, S21T)


def _accepts(blocks: _LmiBlocks, tau: float, tol: float, schur=None) -> bool:
    """Whether the inequality of ``blocks`` at ``tau`` (``_LmiBlocks``) has
    every eigenvalue below ``-tol``, the one test that accepts.

    ``G + tol I`` is negative definite exactly when ``S11 + tol I`` is and
    ``S22 + tol I + S21 (-S11 - tol I)^-1 S21^T`` is, with
    ``S22 = -tau I``; the Schur term at ``tau`` is ``D_tau C D_tau``, ``C``
    the term at ``tau = 1`` (``_schur_term``, or ``schur`` when the caller
    has it for this ``tol``).  So one ``(r + q)``-sized Cholesky decides,
    after ``C``.  A ``tol`` or a Schur complement that is not finite (an
    overflow) rejects, with no warning."""
    if not tol < math.inf:
        return False
    C = _schur_term(blocks, tol) if schur is None else schur
    if C is None:
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.ones(len(C))
        d[: blocks.phi2E_T.shape[2]] = tau
        S = C * d
        S *= d[:, None]
        S.flat[:: len(S) + 1] -= tau
        return bool(np.isfinite(S).all()) and cholesky_negative_definite(S, tol)


def lmi_verify(
    lmi_id: str,
    cert: LmiCertificate,
    nominal,
    structure: StructuredUncertainty,
    gains: GainSet,
) -> bool:
    """Whether a certificate satisfies the cited block inequality.

    The inequality's blocks at the certificate's ``Q`` (exactly symmetric)
    and the loop's ``M0``, gathered together into steps by ``_steps``, are
    tested by ``_accepts`` at ``1e-9 |G|_inf``, as every screened candidate
    of ``lmi_search`` is.  An inequality that overflows is not satisfied.
    """
    loop = _robust_loop(lmi_id, nominal, structure, gains)
    Q = cert.assembled()
    if Q.shape != loop[0].shape:
        raise ValueError("certificate dimension does not match the problem")
    Qs, M0s = _steps(gains.observer.p, Q, loop[0])
    blocks = _lmi_blocks(Qs, M0s, *_structure_steps(loop, structure, len(Qs)))
    return _accepts(blocks, cert.tau, _tolerance(blocks, cert.tau))


def _lyapunov_seed(M0: np.ndarray, p: int, M0s: np.ndarray) -> np.ndarray | None:
    """The search's seed: the solution ``X`` of ``M0^T X M0 - X + I = 0``
    for the loop ``M0`` (``p x p`` blocks), in the steps of its stack
    ``M0s`` (``_steps``), scaled to unit 2-norm, or None when that loop
    is not finite or not stable, or ``X`` is not found positive definite.

    ``X = sum_k (M0^k)^T M0^k`` is summed by squared Smith doubling (R. A.
    Smith, SIAM J. Appl. Math. 16(1), 1968): from ``X = I``, ``A = M0``,
    each ``X += A^T X A``, ``A = A A`` doubles the terms summed.  The rest,
    ``A^T X_inf A``, is below ``X``'s rounding once ``|A|_F^2 <= eps``; a
    sum that is not there within 64 doublings, or that overflows, gives
    None, with no warning.  Each step of ``M0`` is summed on its own, and
    so are its powers and ``X``: the doubling runs on the stack, batched.
    """
    if not np.isfinite(M0).all() or block_spectral_radius(M0, p)[0] >= 1.0:
        return None
    A = M0s
    X = np.broadcast_to(np.eye(A.shape[-1]), A.shape).copy()
    eps = np.finfo(float).eps
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(64):
            tail = np.vdot(A, A)  # |A|_F^2, summed over the steps
            if not eps < tail < math.inf:
                break
            X += np.swapaxes(A, -1, -2) @ (X @ A)
            A = A @ A
    if not (tail <= eps and np.isfinite(X).all()):
        return None
    X = 0.5 * (X + np.swapaxes(X, -1, -2))
    w = np.linalg.eigvalsh(X)
    if w[..., 0].min() <= 0:
        return None
    return X / w[..., -1].max()


def _lmi_grid(Xs: np.ndarray, M0s: np.ndarray, loop, structure):
    """The search's candidates in grid order, as ``(Qs, tau, blocks, screened)``.

    For each block rescaling ``Q = D X D`` of the seed, on the stack ``Xs``
    (``scale`` on the first third of the rows of each step), the blocks
    (``_LmiBlocks``, at ``tau = 1``) of the inequality on the loop's stack
    ``M0s`` are formed once and serve every ``tau``.  Symmetry is checked
    once, exactly, on the seed (else ``ValueError``): the rescalings are
    by powers of two, so every ``Q`` is then exactly symmetric.

    ``screened`` is False when ``G(tau)`` is not negative definite even
    without a tolerance: ``_accepts`` at ``tol = 0``, on the Schur term at
    ``tau = 1`` that is formed once per rescaling (``_schur_term``), since
    ``S11`` does not depend on ``tau``.
    """
    if not np.array_equal(Xs, np.swapaxes(Xs, 1, 2)):
        raise ValueError("matrix is not symmetric: the seed differs from its transpose")
    b = Xs.shape[1] // 3
    A_T, W = _structure_steps(loop, structure, len(Xs))
    for scale in (1.0, 0.5, 2.0, 0.25, 4.0):
        d = np.concatenate([np.full(b, scale), np.ones(2 * b)])
        Qs = d[:, None] * Xs
        Qs *= d  # D X D, entry by entry in the same order
        blocks = _lmi_blocks(Qs, M0s, A_T, W)
        C = _schur_term(blocks, 0.0)
        for tau in np.logspace(-4, 4, 17):
            screened = C is not None and _accepts(blocks, tau, 0.0, C)
            yield Qs, float(tau), blocks, screened


def lmi_search(
    lmi_id: str,
    nominal,
    structure: StructuredUncertainty,
    gains: GainSet,
) -> LmiCertificate | None:
    """Heuristic certificate search: Lyapunov seed plus a tau grid.

    Seeds ``Q`` from the discrete Lyapunov (Stein) solution of the nominal
    closed matrix, summed by doubling (``_lyapunov_seed``), tries a few
    block rescalings of that seed, and sweeps ``tau`` over a log grid,
    returning the first certificate that verifies.  Each candidate is
    first screened: ``_accepts`` with no tolerance, on the Schur term of
    its rescaling (see ``_lmi_grid``).  One that passes is tested by
    ``_accepts`` at ``1e-9 |G(tau)|_inf``, the test ``lmi_verify``
    applies, which alone accepts.  The screen tests with no tolerance,
    so it rejects only candidates that test rejects.  The rescalings are
    positive definite by congruence with the checked seed, so only the
    returned certificate is built and validated.  Absence of a
    certificate is a legitimate outcome (None), not an error.
    """
    loop = _robust_loop(lmi_id, nominal, structure, gains)
    p = gains.observer.p
    (M0s,) = _steps(p, loop[0])
    Xs = _lyapunov_seed(loop[0], p, M0s)
    if Xs is None:
        return None
    for Qs, tau, blocks, screened in _lmi_grid(Xs, M0s, loop, structure):
        if screened and _accepts(blocks, tau, _tolerance(blocks, tau)):
            Q = _scatter(Qs)
            return LmiCertificate(Q11=Q[:p, :p], Q21=Q[p:, :p], Q22=Q[p:, p:], tau=tau)
    return None


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


def _json_matrix(M: np.ndarray) -> str:
    """``M`` as ``json.dump(M.tolist(), indent=2)`` lays it out one level
    deep in a document.  Every entry is finite, so ``json`` writes
    ``float.__repr__`` of it: that is called only on the entries that are
    not ``+0.0`` (``-0.0`` among them), and every other entry is the
    literal ``0.0``."""
    rows, cols = np.nonzero((M != 0) | np.signbit(M))
    text = [["0.0"] * M.shape[1] for _ in range(M.shape[0])]
    for i, j, x in zip(rows.tolist(), cols.tolist(), M[rows, cols].tolist()):
        text[i][j] = float.__repr__(x)
    lines = ("[\n      " + ",\n      ".join(row) + "\n    ]" for row in text)
    return "[\n    " + ",\n    ".join(lines) + "\n  ]"


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
