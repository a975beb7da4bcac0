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
whole inequality is never formed.  The search is a heuristic seeded by
the discrete Lyapunov (Stein) solution of the loop, not a semidefinite
solver.  Every catalog loop, every inequality's loop and every separation
target is laid out by ``_robust_form`` as ``M0 + D delta E``, over a stack
of time steps: when no factor has a nonzero above its diagonal (a lifted
plant's), step ``t`` is the layout of the factors' ``(t, t)`` entries and
the loop is never formed; otherwise the loop is one step, whole.  The
reports, the search, ``lmi_verify`` and ``LmiCertificate`` all read such
stacks (``_steps``).  ``condition_reports`` lays out each ``M0`` once for
plants that share a nominal map and gain set; the tests check each
unseparated loop against its law's step in the engine, and each report in
steps against ``loop_matrix``, the loop whole.  The laws run
``eq04`` (``p_type``), ``eq04`` with ``eq17`` (``eso_full_state``, its
observer on the true map), ``eq41`` and ``eq62`` (``eso_mixed`` and
``eso_robust``, on the nominal map) and ``eq102`` (``eso_model_free``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .learner import DESIGN_GAINS, GainSet, require_gains
from .observer import error_dynamics_matrix
from .matanalysis import (
    as_matrix,
    block_spectral_radius,
    cholesky_negative_definite,
    negative_definite_schur_term,
    steps_spectral_radius,
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


class _Loop(NamedTuple):
    """A design's loop ``M0 + D delta E`` over a stack of time steps
    (``_robust_form``).  ``M0`` is the ``(s, b n, b n)`` stack of the loop
    at zero model error; ``D`` holds the channel's ``b`` row blocks and
    ``E`` its ``b`` column blocks, each a whole factor (``p x p``, and
    ``m x p`` in ``E``) or None where the channel is zero, with ``D[0] = -I``.
    With ``steps``, step ``t`` of ``M0`` is the layout of the factors'
    ``(t, t)`` entries (``s = p``, ``n = 1``); else ``M0[0]`` is the whole
    loop (``s = 1``, ``n = p``)."""

    M0: np.ndarray
    D: tuple
    E: tuple
    steps: bool


def _lower(*Xs: np.ndarray) -> bool:
    """Whether every one of ``Xs`` is square with no nonzero above its
    diagonal: read time-major, no entry couples a step to a later one."""
    return all(X.shape[0] == X.shape[1] and not np.triu(X, 1).any() for X in Xs)


def _view(X: np.ndarray, steps: bool) -> np.ndarray:
    """The factor ``X`` on a layout's stack: its ``(t, t)`` entries as
    ``(p, 1, 1)`` steps, or ``X`` whole as one step."""
    return np.diagonal(X)[:, None, None] if steps else X[None]


def _times(A: np.ndarray, B: np.ndarray, steps: bool) -> np.ndarray:
    """``A @ B`` on a layout's stack.  Per step it is the product of the
    ``(t, t)`` entries, which is the dense product's ``(t, t)`` entry when
    neither factor has a nonzero above its diagonal: every other term of
    that sum is an exact zero.  Adding ``0.0`` turns a ``-0.0`` product
    into the ``+0.0`` that such a sum gives."""
    return A * B + 0.0 if steps else A @ B


def _robust_form(design: str, P0, gains: GainSet, cid: str, steps: bool = True) -> _Loop:
    """The one layout of a design's loop around the map ``P0`` (``_Loop``):
    the loop at zero model error, ``M0``, and the channel ``(D, E)`` through
    which an error ``delta`` enters it, so that the loop at ``delta`` is
    ``M0 + D delta E``.  ``learning`` is ``(I - P0 K, -I, K)``; with the
    observer loop ``A_lc``, ``compensated`` (gain ``H``) is
    ``([[I - P0 K, -P0 H F], [0, A_lc]], [-I; Cbar^T], [K, H F])`` and
    ``aggregated`` (gain ``Hbar``) is ``([[I - P0 K, Hbar F], [0, A_lc]],
    [-I; -Lbar], [K, 0])``, with ``Lbar = [L1; L2]``.  The selectors
    ``F = [0, I]`` and ``Cbar^T = [I; 0]`` are placed, not multiplied.
    ``observer`` is ``(A_lc, (), ())``.

    With ``steps`` (the default), when ``p >= 2`` and none of the factors
    that enter ``M0`` (``P0``, ``K``, the design's ``H`` or ``Hbar``,
    ``L1``, ``L2``) has a nonzero above its diagonal, ``M0`` is laid out as
    its ``p`` time steps, each from the factors' ``(t, t)`` entries: the
    loop is then block lower triangular in time, and its spectrum is the
    union of theirs.  Otherwise, or without ``steps``, ``M0`` is the whole
    matrix as one step.  A design's gain that ``gains`` lack
    (``learner.DESIGN_GAINS``) raises ``ValueError``.  A product that
    overflows leaves the loop infinite, with no warning.
    """
    require_gains(design, gains, f"condition {cid}")
    K, og = gains.K, gains.observer
    if design == "observer":
        steps = steps and og.p >= 2 and _lower(og.L1, og.L2)
        A_lc = error_dynamics_matrix(og, steps)
        return _Loop(A_lc if steps else A_lc[None], (), (), steps)
    p = P0.shape[0]
    gain = {"learning": None, "compensated": gains.H, "aggregated": gains.Hbar}[design]
    factors = (P0, K) if gain is None else (P0, K, gain, og.L1, og.L2)
    steps = steps and p >= 2 and _lower(*factors)
    n, s = (1, p) if steps else (p, 1)
    I = np.ones((s, 1, 1)) if steps else np.eye(p)[None]
    with np.errstate(over="ignore", invalid="ignore"):
        learning = I - _times(_view(P0, steps), _view(K, steps), steps) if P0.any() else I
        if design == "learning":
            return _Loop(learning, (-np.eye(p),), (K,), steps)
        if og.p != p:
            raise ValueError("nominal map and observer gains disagree on dimension")
        M0 = np.zeros((s, 3 * n, 3 * n))
        M0[:, :n, :n] = learning
        M0[:, n:, n:] = error_dynamics_matrix(og, steps)
        if design == "compensated":
            M0[:, :n, 2 * n :] = -_times(_view(P0, steps), _view(gain, steps), steps)
            return _Loop(M0, (-np.eye(p), np.eye(p), None), (K, None, gain), steps)
        M0[:, :n, 2 * n :] = _view(gain, steps)
    return _Loop(M0, (-np.eye(p), -og.L1, -og.L2), (K, None, None), steps)


def _at_error(loop: _Loop, delta: np.ndarray) -> np.ndarray:
    """``M0 + D delta E`` on the loop's stack, adding ``D (delta E_j)`` only
    for the column blocks ``E_j`` that are not zero.  The top block of ``D``
    is ``-I`` in every design, so ``delta E_j`` is subtracted there and the
    rows below it are multiplied as one stacked product.  On a layout in
    steps, ``delta`` must have no nonzero above its diagonal (``_lower``):
    only its ``(t, t)`` entries are read."""
    M, steps = loop.M0.copy(), loop.steps
    s, n = len(M), M.shape[-1] // len(loop.E)
    below = [np.zeros((s, n, n)) if X is None else _view(X, steps) for X in loop.D[1:]]
    below = np.concatenate(below, axis=1) if below else None
    d = _view(delta, steps)
    for j, Ej in enumerate(loop.E):
        if Ej is not None and Ej.any():
            dE = _times(d, _view(Ej, steps), steps)
            M[:, :n, j * n : (j + 1) * n] -= dE
            if below is not None:
                M[:, n:, j * n : (j + 1) * n] += _times(below, dE, steps)
    return M


def _around(condition_id: str, plant: TransferPlant | None, gains: GainSet | None, surrogate):
    """The map a catalog condition's loop is built around (``_CATALOG``):
    the surrogate, the plant's nominal map, or None (``eq17``)."""
    if condition_id not in CONDITION_IDS:
        raise ValueError(f"unknown condition id {condition_id!r}")
    if gains is None:
        raise ValueError(f"condition {condition_id} requires gains")
    around = _CATALOG[condition_id][1]
    if around == "surrogate":
        return as_matrix(_require(surrogate, "a surrogate", condition_id), "surrogate")
    if around == "nominal":
        return _require(plant, "a plant", condition_id).nominal
    return None


def _error(condition_id: str, plant: TransferPlant | None, X) -> np.ndarray:
    """The model error of ``plant`` that the catalog names for the
    condition, around the map ``X``: its ``delta``, or the true map minus
    ``X``."""
    plant = _require(plant, "a plant", condition_id)
    if _CATALOG[condition_id][2] == "plant.delta":
        return plant.delta
    with np.errstate(over="ignore", invalid="ignore"):
        return plant.full() - X


def _radius(Ms: np.ndarray, block: int) -> tuple[float, str]:
    """The spectral radius of a loop on its stack ``Ms``, and how it was
    found: steps of a loop that is block triangular in time in one batched
    solve, one step by ``matanalysis.block_spectral_radius``."""
    if len(Ms) > 1:
        return steps_spectral_radius(Ms), "block_triangular"
    return block_spectral_radius(Ms[0], block)


def _report(condition_id: str, M: np.ndarray, block: int) -> ConditionReport:
    """The report of the condition's loop on its stack ``M`` (``_radius``);
    a loop that is not finite reads ``rho`` infinite."""
    if np.isfinite(M).all():
        rho, method = _radius(M, block)
    else:
        rho, method = math.inf, "non_finite"
    return ConditionReport(
        condition_id=condition_id,
        rho=rho,
        holds=rho < 1.0,
        matrix_dim=len(M) * M.shape[-1],
        method=method,
    )


def _reports(condition_id: str, plants, gains: GainSet | None, surrogate) -> list[ConditionReport]:
    """The condition's report for each of ``plants``, which share one
    nominal map.  Its layout (``_robust_form``) is built once in steps,
    and once whole if a plant's error has a nonzero above its diagonal;
    per plant only its error is added and the radius solved.  A report
    that no model error enters is solved once, for all."""
    X = _around(condition_id, plants[0], gains, surrogate)
    design, _, error, _ = _CATALOG[condition_id]
    block = gains.K.shape[1]
    if error is None:
        loop = _robust_form(design, X, gains, condition_id)
        return [_report(condition_id, loop.M0, block)] * len(plants)
    require_gains(design, gains, f"condition {condition_id}")
    loops, reports = {}, []
    for plant in plants:
        delta = _error(condition_id, plant, X)
        steps = _lower(delta)
        if steps not in loops:
            loops[steps] = _robust_form(design, X, gains, condition_id, steps)
        with np.errstate(over="ignore", invalid="ignore"):
            reports.append(_report(condition_id, _at_error(loops[steps], delta), block))
    return reports


def loop_matrix(
    condition_id: str,
    plant: TransferPlant | None = None,
    gains: GainSet | None = None,
    surrogate=None,
) -> np.ndarray:
    """The block matrix of a catalog condition, whole: the dense oracle of
    the layout in steps that ``check_condition`` solves.

    ``eq17`` is the observer loop ``A_lc``.  Every other condition is its
    design's loop (``_CATALOG``) from ``_robust_form``, around the plant's
    nominal map or the surrogate, at the model error the catalog names:
    the plant's ``delta``, or the true map minus the surrogate (``eq102``).
    So ``eq04`` is ``I - P K`` with ``P`` the true map, and the model-free
    loop reads the same whether a plant is ``nominal + delta`` or ``0 + P``.
    """
    X = _around(condition_id, plant, gains, surrogate)
    loop = _robust_form(_CATALOG[condition_id][0], X, gains, condition_id, steps=False)
    if _CATALOG[condition_id][2] is None:
        return loop.M0[0]
    delta = _error(condition_id, plant, X)
    with np.errstate(over="ignore", invalid="ignore"):
        return _at_error(loop, delta)[0]


def check_condition(
    condition_id: str,
    plant: TransferPlant | None = None,
    gains: GainSet | None = None,
    surrogate=None,
) -> ConditionReport:
    """Spectral radius of a catalog condition's block matrix; holds if < 1.

    Every block of the matrix is ``p x p``, with ``p`` the error dimension
    of the gains.  When no factor of the loop, the plant's error among
    them, has a nonzero above its diagonal, the loop is block lower
    triangular in time and is solved as its ``p`` time steps, in one
    batched call, without forming it; otherwise the whole matrix is solved
    (``matanalysis.block_spectral_radius``).  A loop that is not finite
    (it overflowed) is a verdict, not an error: ``rho`` is infinite and
    the condition does not hold.
    """
    return _reports(condition_id, [plant], gains, surrogate)[0]


def condition_reports(plants, gains: GainSet, surrogate=None) -> list[list[ConditionReport]]:
    """Each plant's reports (``check_condition``) of the conditions that
    apply (``applicable_conditions``), for one or more plants that share one
    nominal map and the gain set ``gains``.  Each condition's loop at zero
    model error is laid out once, and so is the report of a condition that
    no model error enters; per plant only its error is added and the radius
    solved."""
    reports = [[] for _ in plants]
    for cid in applicable_conditions(gains, plants[0].nominal, surrogate):
        for plant_reports, report in zip(reports, _reports(cid, plants, gains, surrogate)):
            plant_reports.append(report)
    return reports


# ---------------------------------------------------------------------------
# Block matrix inequalities
# ---------------------------------------------------------------------------

@dataclass(init=False)
class LmiCertificate:
    """Structured positive-definite ``Q`` and scalar ``tau`` for the
    robustness inequalities.

    ``Q = [[Q11, Q21^T], [Q21, Q22]]`` is held as ``steps``, the stack of
    its time steps (``_steps``): ``(p, 3, 3)`` when it couples no two
    steps, else ``(1, 3p, 3p)``, the whole of it.  It is built from its
    blocks, ``LmiCertificate(Q11, Q21, Q22, tau)``, or from that stack
    (``from_steps``), and the blocks and ``assembled()`` scatter it back.
    ``Q`` must be symmetric positive definite and ``tau`` finite and
    strictly positive; violating either makes the certificate invalid (an
    error), distinct from a valid certificate that merely fails an
    inequality.  Symmetry is to ``1e-10 max(1, |Q|_max)``, checked per
    step, and each step is kept symmetrised, ``(X + X^T) / 2``, so that
    ``Q`` and every inequality assembled from it are exactly symmetric (an
    exactly symmetric step is kept bit for bit).  Positive definiteness,
    with no tolerance, is decided by one batched Cholesky factorisation of
    the steps (``matanalysis.cholesky_negative_definite`` on ``-Q``).
    """

    steps: np.ndarray
    tau: float

    def __init__(self, Q11, Q21, Q22, tau):
        Q11, Q21, Q22 = as_matrix(Q11, "Q11"), as_matrix(Q21, "Q21"), as_matrix(Q22, "Q22")
        p = Q11.shape[0]
        if Q11.shape != (p, p):
            raise ValueError("Q11 must be square")
        if Q21.shape != (2 * p, p):
            raise ValueError("Q21 must be 2p x p")
        if Q22.shape != (2 * p, 2 * p):
            raise ValueError("Q22 must be 2p x 2p")
        steps = _steps(p, np.block([[Q11, Q21.T], [Q21, Q22]]))
        self._validate(steps, tau)

    @classmethod
    def from_steps(cls, steps: np.ndarray, tau: float) -> "LmiCertificate":
        """The certificate whose ``Q`` has the stack of time steps ``steps``."""
        cert = cls.__new__(cls)
        cert._validate(steps, tau)
        return cert

    def _validate(self, steps: np.ndarray, tau) -> None:
        self.tau = float(tau)
        if not 0 < self.tau < math.inf:
            raise ValueError(f"tau must be finite and positive, got {self.tau!r}")
        S = np.swapaxes(steps, 1, 2)
        if np.abs(steps - S).max() > 1e-10 * max(1.0, np.abs(steps).max()):
            raise ValueError("assembled Q must be symmetric")
        S = S + steps
        S *= 0.5
        if not cholesky_negative_definite(-S):
            raise ValueError("assembled Q must be positive definite")
        self.steps = S

    def assembled(self) -> np.ndarray:
        return _scatter(self.steps)

    @property
    def p(self) -> int:
        return len(self.steps) * self.steps.shape[1] // 3

    @property
    def Q11(self) -> np.ndarray:
        return self.assembled()[: self.p, : self.p]

    @property
    def Q21(self) -> np.ndarray:
        return self.assembled()[self.p :, : self.p]

    @property
    def Q22(self) -> np.ndarray:
        return self.assembled()[self.p :, self.p :]


class _LmiLoop(NamedTuple):
    """The loop an inequality's certificate is sought on (``_robust_loop``):
    ``M0``, the stack of time steps (``_steps``) of the loop at zero model
    error, and its channel ``(D, E)``, blocks as in ``_Loop``."""

    M0: np.ndarray
    D: tuple
    E: tuple


def _robust_loop(lmi_id: str, nominal, structure, gains) -> _LmiLoop:
    """The inequality's loop around ``nominal`` (``_LmiLoop``), from
    ``_robust_form`` for the design ``_CATALOG`` names, with ``M0`` as the
    stack the certificate is sought on: the loop's time steps when it
    couples no two of them, else the whole loop as one step.  Laid out in
    steps, it couples none exactly when every block of ``M0`` is diagonal:
    ``P0 K``, ``L1``, ``L2`` and ``P0 H`` or ``Hbar``.  This is what the
    search and ``lmi_verify`` read."""
    if lmi_id not in LMI_IDS:
        raise ValueError(f"unknown inequality id {lmi_id!r}")
    P0 = as_matrix(nominal, "nominal")
    if structure.phi1.shape[0] != P0.shape[0] or structure.phi2.shape[1] != gains.K.shape[0]:
        raise ValueError("structure dimensions do not match the plant")
    design = _CATALOG[lmi_id][0]
    loop = _robust_form(design, P0, gains, lmi_id)
    if loop.steps:
        og = gains.observer
        with np.errstate(over="ignore", invalid="ignore"):
            gain = P0 @ gains.H if design == "compensated" else gains.Hbar
            blocks = (P0 @ gains.K, og.L1, og.L2, gain)
        if not any(np.tril(X, -1).any() for X in blocks):
            return _LmiLoop(loop.M0, loop.D, loop.E)
        loop = _robust_form(design, P0, gains, lmi_id, steps=False)
    return _LmiLoop(_steps(gains.observer.p, loop.M0[0]), loop.D, loop.E)


def _steps(p: int, M: np.ndarray) -> np.ndarray:
    """``M`` as a stack of time steps: its ``p`` steps
    (``matanalysis.time_steps``) when it couples no two time steps, else
    the whole matrix as one step, ``M[None]``.  Read time-major, ``M`` is
    block diagonal in the steps of its stack."""
    steps, structure = time_steps(M, p)
    return steps if structure == "decoupled" else M[None]


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


def _structure_steps(loop: _LmiLoop, structure, s: int) -> tuple[np.ndarray, np.ndarray]:
    """``(phi2 E)^T`` and ``phi1^T D^T`` of the loop (``_LmiLoop``) per step
    of a stack of ``s`` (column ``i s + t`` is ``[t, :, i]`` before the
    transpose), formed once per search or verification: no ``Q`` enters
    them.  Only the channel's blocks that are not zero are multiplied.  A
    product that overflows warns nowhere: its tolerance is not finite,
    which rejects it (``_accepts``)."""
    p = loop.E[0].shape[1]

    def per_step(phi, blocks):
        X = np.concatenate([np.zeros((len(phi), p)) if B is None else phi @ B for B in blocks], 1)
        return X.reshape(len(X), -1, s).transpose(2, 0, 1)

    with np.errstate(over="ignore", invalid="ignore"):
        A = per_step(structure.phi2, loop.E)
        W = per_step(structure.phi1.T, [None if B is None else B.T for B in loop.D])
    return np.ascontiguousarray(np.swapaxes(A, 1, 2)), np.ascontiguousarray(W)


def _lmi_blocks(Qs: np.ndarray, M0s: np.ndarray, A_T, W) -> _LmiBlocks:
    """The inequality's blocks (``_LmiBlocks``) at the stack ``Qs``, on the
    loop's stack ``M0s`` of the same steps and its ``_structure_steps``."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _LmiBlocks(Qs, Qs @ M0s, A_T, np.ascontiguousarray(np.swapaxes(W @ Qs, 1, 2)))


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
    is passed as the ``(s, 2c, 2c)`` stack of its steps and factored by one
    batched Cholesky.  At each step ``S21^T`` is block diagonal, the rows
    ``(phi2 E)^T`` over the first ``c`` and ``(phi1^T D^T Q)^T`` over the
    last: only these two blocks are multiplied.  An overflow warns nowhere:
    it leaves the term not finite."""
    Q, QM0, A_T, B_T = blocks
    c = Q.shape[1]
    S11 = np.empty((len(Q), 2 * c, 2 * c))
    S11[:, :c, :c] = S11[:, c:, c:] = -Q
    S11[:, c:, :c] = QM0
    S11[:, :c, c:] = np.swapaxes(QM0, 1, 2)
    diag = np.arange(2 * c)
    S11[:, diag, diag] += tol
    with np.errstate(over="ignore", invalid="ignore"):
        return negative_definite_schur_term(S11, A_T, B_T)


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
        C = None  # a term formed here is let go before the factorisation
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
    and the loop's ``M0``, each on its stack of time steps (both whole when
    either couples two steps), are tested by ``_accepts`` at
    ``1e-9 |G|_inf``, as every screened candidate of ``lmi_search`` is.  An
    inequality that overflows is not satisfied.
    """
    loop = _robust_loop(lmi_id, nominal, structure, gains)
    Qs, M0s = cert.steps, loop.M0
    if len(Qs) * Qs.shape[1] != len(M0s) * M0s.shape[1]:
        raise ValueError("certificate dimension does not match the problem")
    if len(Qs) != len(M0s):
        Qs, M0s = _scatter(Qs)[None], _scatter(M0s)[None]
    blocks = _lmi_blocks(Qs, M0s, *_structure_steps(loop, structure, len(Qs)))
    return _accepts(blocks, cert.tau, _tolerance(blocks, cert.tau))


def _lyapunov_seed(M0s: np.ndarray, p: int) -> np.ndarray | None:
    """The search's seed: the solution ``X`` of ``M0^T X M0 - X + I = 0``
    for the loop ``M0`` (``p x p`` blocks), in the steps of its stack
    ``M0s`` (``_steps``), scaled to unit 2-norm, or None when that loop
    is not finite or not stable (``_radius``), or ``X`` is not found
    positive definite.

    ``X = sum_k (M0^k)^T M0^k`` is summed by squared Smith doubling (R. A.
    Smith, SIAM J. Appl. Math. 16(1), 1968): from ``X = I``, ``A = M0``,
    each ``X += A^T X A``, ``A = A A`` doubles the terms summed.  The rest,
    ``A^T X_inf A``, is below ``X``'s rounding once ``|A|_F^2 <= eps``; a
    sum that is not there within 64 doublings, or that overflows, gives
    None, with no warning.  Each step of ``M0`` is summed on its own, and
    so are its powers and ``X``: the doubling runs on the stack, batched.
    """
    if not np.isfinite(M0s).all() or _radius(M0s, p)[0] >= 1.0:
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


def _lmi_grid(Xs: np.ndarray, M0s: np.ndarray, A_T: np.ndarray, W: np.ndarray):
    """The search's candidates in grid order, as ``(Qs, tau, blocks, screened)``.

    For each block rescaling ``Q = D X D`` of the seed, on the stack ``Xs``
    (``scale`` on the first third of the rows of each step), the blocks
    (``_LmiBlocks``, at ``tau = 1``) of the inequality on the loop's stack
    ``M0s`` and its ``_structure_steps`` are formed once and serve every
    ``tau``.  Symmetry is checked
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
    for scale in (1.0, 0.5, 2.0, 0.25, 4.0):
        blocks = C = None  # the last rescaling's, freed before the next is formed
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
    M0s, Xs = loop.M0, _lyapunov_seed(loop.M0, gains.observer.p)
    if Xs is None:
        return None
    A_T, W = _structure_steps(loop, structure, len(Xs))
    loop = None  # its channel's factors are not needed past here
    for Qs, tau, blocks, screened in _lmi_grid(Xs, M0s, A_T, W):
        if screened and _accepts(blocks, tau, _tolerance(blocks, tau)):
            return LmiCertificate.from_steps(Qs, tau)
        blocks = None  # not held while the grid forms the next rescaling's
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


def _json_matrix(shape, rows, cols, values) -> str:
    """A matrix of ``shape`` that is ``+0.0`` but for ``values`` at
    ``(rows, cols)``, as ``json.dump(M.tolist(), indent=2)`` lays it out one
    level deep in a document.  Every entry is finite, so ``json`` writes
    ``float.__repr__`` of it: that is called only on the given entries
    (``-0.0`` among them), and every other entry is the literal ``0.0``."""
    text = [["0.0"] * shape[1] for _ in range(shape[0])]
    for i, j, x in zip(rows.tolist(), cols.tolist(), values.tolist()):
        text[i][j] = float.__repr__(x)
    lines = ("[\n      " + ",\n      ".join(row) + "\n    ]" for row in text)
    return "[\n    " + ",\n    ".join(lines) + "\n  ]"


def save_certificate(path, cert: LmiCertificate) -> None:
    """Write ``certificate_to_dict(cert)`` as ``json.dump(..., indent=2,
    sort_keys=True)`` and a newline would, byte for byte, without the
    pure-Python encoder, from the certificate's stack of time steps: entry
    ``[t, a, b]`` of a stack of ``s`` is ``Q[a s + t, b s + t]``, and every
    other entry of ``Q`` is ``+0.0``."""
    Qs, p = cert.steps, cert.p
    t, a, b = np.nonzero((Qs != 0) | np.signbit(Qs))
    rows, cols, values = a * len(Qs) + t, b * len(Qs) + t, Qs[t, a, b]
    blocks = (("Q11", 0, 0, (p, p)), ("Q21", p, 0, (2 * p, p)), ("Q22", p, p, (2 * p, 2 * p)))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("{\n")
        for name, r0, c0, shape in blocks:
            at = (rows >= r0) & (rows < r0 + shape[0]) & (cols >= c0) & (cols < c0 + shape[1])
            text = _json_matrix(shape, rows[at] - r0, cols[at] - c0, values[at])
            fh.write(f'  "{name}": {text},\n')
        fh.write(f'  "format_version": 1,\n  "tau": {float.__repr__(cert.tau)}\n}}\n')
