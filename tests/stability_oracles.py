"""What the tests check ``iterlearn.stability`` with, and no command runs.

``verify_separation`` checks each similarity identity numerically against
its block-triangular target, ``load_certificate`` (with
``certificate_from_dict``) reads back the certificate files that
``stability.save_certificate`` writes, rejecting a malformed one, and
``theorem_implication_check`` samples structured model errors
(``sample_structured_delta``) to test what a verified certificate claims.
``_assemble_lmi`` forms the whole inequality densely and
``cholesky_negative_definite`` tests it by one in-place LAPACK Cholesky,
as ``stability`` once did: the oracle of the Schur split that
``stability._accepts`` decides by.  ``inequality_of`` forms the matrix
that a split's blocks stand for, scattering each stack of time steps
back into its matrix (``scatter_steps``).
"""

import json
from dataclasses import replace

import numpy as np

from iterlearn.learner import GainSet
from iterlearn.matanalysis import block_spectral_radius, induced_norm
from iterlearn.plant import StructuredUncertainty, TransferPlant
from iterlearn.stability import (
    SEPARATION_IDS,
    _LmiBlocks,
    LmiCertificate,
    _at_error,
    _robust_form,
    _robust_loop,
    lmi_verify,
    loop_matrix,
)

from extended_state import law_map


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


def load_certificate(path) -> LmiCertificate:
    with open(path, "r", encoding="ascii") as fh:
        doc = json.load(fh)
    return certificate_from_dict(doc)


def sample_structured_delta(structure: StructuredUncertainty, seed) -> np.ndarray:
    """Draw ``phi1 @ sigma @ phi2`` with a random contraction ``sigma``.

    Entries of ``sigma`` are uniform on [-1, 1]; if the draw has two-norm
    above one it is scaled back onto the contraction ball.  Deterministic
    per seed.
    """
    rng = np.random.default_rng(seed)
    q = structure.phi1.shape[1]
    r = structure.phi2.shape[0]
    sigma = rng.uniform(-1.0, 1.0, size=(q, r))
    s = induced_norm(sigma, "two")
    if s > 1.0:
        sigma /= s
    return structure.phi1 @ sigma @ structure.phi2


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
    if not lmi_verify(lmi_id, cert, nominal, structure, gains):
        raise ValueError("certificate does not verify; implication check requires one")
    loop = _robust_loop(lmi_id, nominal, structure, gains)
    for child in np.random.SeedSequence(seed).spawn(samples):
        M = _at_error(loop, sample_structured_delta(structure, child))
        if block_spectral_radius(M, gains.K.shape[1])[0] >= 1.0:
            return False
    return True


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


def cholesky_negative_definite(S: np.ndarray, tol: float, work: np.ndarray) -> bool:
    """Whether every eigenvalue of the symmetric ``S`` lies below ``-tol``.

    That holds exactly when ``-S - tol I`` is positive definite, that is
    when its Cholesky factorisation exists.  LAPACK ``dpotrf`` factors it
    in place in ``work``, a C-contiguous float array of the shape of ``S``
    (``S`` itself may serve, and is then overwritten); one triangle is
    read, so ``S`` must be exactly symmetric.  This costs about a third of
    a symmetric eigenvalue solve and allocates nothing.
    """
    from scipy.linalg.lapack import dpotrf  # deferred: simulate needs no scipy

    np.negative(S, out=work)
    work.flat[:: work.shape[0] + 1] -= tol
    # the transpose of a C-contiguous array is Fortran-contiguous, so the
    # factorisation runs in place instead of on a copy
    _, info = dpotrf(work.T, lower=1, clean=0, overwrite_a=1)
    return info == 0


def scatter_steps(steps):
    """The matrix whose time-major steps are ``steps`` (``(p, b, b)``): a
    ``b x b`` grid of diagonal ``p x p`` blocks, entry by entry."""
    p, b, _ = steps.shape
    M = np.zeros((b * p, b * p))
    for t in range(p):
        idx = np.arange(b) * p + t
        M[np.ix_(idx, idx)] = steps[t]
    return M


def inequality_of(blocks: _LmiBlocks, tau: float) -> np.ndarray:
    """The inequality that ``blocks`` stand for at ``tau``, formed densely
    from their steps: its trailing rows are ``tau (phi2 E)``, as
    ``stability._accepts`` scales them."""
    Q, QM0 = scatter_steps(blocks.Q), scatter_steps(blocks.QM0)
    # [t, i, k] of the rows per step is row i s + t
    A, B = (X.transpose(2, 1, 0).reshape(X.shape[2], -1) for X in blocks[2:])
    n, r, q = len(Q), len(A), len(B)
    k = 2 * n + r
    S = np.zeros((k + q, k + q))
    S[:n, :n] = S[n : 2 * n, n : 2 * n] = -Q
    S[n : 2 * n, :n] = QM0
    S[:n, n : 2 * n] = QM0.T
    S[2 * n : k, :n] = tau * A
    S[:n, 2 * n : k] = S[2 * n : k, :n].T
    S[k:, n : 2 * n] = B
    S[n : 2 * n, k:] = B.T
    S[np.arange(2 * n, k + q), np.arange(2 * n, k + q)] = -tau
    return S
