"""Dense real-matrix analysis primitives.

Eigenvalues, spectral radii (dense, and block by block in time for
lifted loops, whose time structure ``time_steps`` reads), induced norms,
a negative-definiteness test by Cholesky factorisation and the Schur
term that splits such a test in two, and a plain text format for
matrices.  Everything operates on plain ``numpy`` arrays of finite
floats, with numpy's own LAPACK; all functions are pure.
"""

from __future__ import annotations

import numpy as np

from .textfmt import format_g17

__all__ = [
    "NORM_KINDS",
    "as_matrix",
    "as_square",
    "eigenvalues",
    "spectral_radius",
    "time_steps",
    "block_spectral_radius",
    "steps_spectral_radius",
    "induced_norm",
    "cholesky_negative_definite",
    "negative_definite_schur_term",
    "format_matrix_text",
    "parse_matrix_text",
    "save_matrix",
    "load_matrix",
]

NORM_KINDS = ("one", "infinity", "two")


def as_matrix(value, name: str = "matrix") -> np.ndarray:
    """Validate and return a 2-D float array with finite entries."""
    M = np.asarray(value, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {M.shape}")
    if M.shape[0] < 1 or M.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and column")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    return M


def as_square(value, name: str = "matrix") -> np.ndarray:
    M = as_matrix(value, name)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    return M


def eigenvalues(M) -> np.ndarray:
    """All eigenvalues of a square real matrix, with multiplicity.

    Returns a complex array sorted by real part, then imaginary part.
    Delegates to the LAPACK dense general eigensolver (balanced
    Hessenberg reduction followed by shifted QR); if its internal
    iteration cap is exhausted the failure is surfaced as a
    ``RuntimeError`` instead of a partial result.
    """
    M = as_square(M)
    try:
        w = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - exotic input
        raise RuntimeError(f"eigenvalue iteration did not converge: {exc}") from exc
    return np.sort_complex(w)


def spectral_radius(M) -> float:
    """Largest eigenvalue modulus of a square real matrix."""
    return float(np.max(np.abs(eigenvalues(M))))


def time_steps(M: np.ndarray, block: int) -> tuple[np.ndarray | None, str | None]:
    """The time-diagonal blocks of a lifted loop, and how it couples time steps.

    ``M`` is read as a ``b x b`` grid of ``block x block`` blocks, one per
    pair of signals, each indexed by time.  ``steps`` is the
    ``(block, b, b)`` stack ``steps[t] = [M_ij[t, t]]``, a read-only view of
    ``M``.  ``structure`` comes from exact tests: ``"decoupled"`` when every
    nonzero of ``M`` lies in ``steps`` (ordered time-major, ``M`` is then
    block diagonal with the blocks ``steps[t]``), ``"triangular"`` when the
    strictly upper part of every block is zero (time-major, ``M`` is block
    lower triangular), else None.  A ``block`` below 2 or not dividing the
    size gives ``(None, None)``.
    """
    n = M.shape[0]
    if block < 2 or n % block:
        return None, None
    b = n // block
    steps = np.moveaxis(np.diagonal(M.reshape(b, block, b, block), axis1=1, axis2=3), 2, 0)
    nonzero = (M != 0).reshape(b, block, b, block)  # [i, s, j, t]: M_ij[s, t] != 0
    if np.count_nonzero(nonzero) == np.count_nonzero(np.diagonal(nonzero, axis1=1, axis2=3)):
        return steps, "decoupled"
    t = np.arange(block)
    if not np.any(nonzero & (t[:, None, None] < t)):  # the mask [s, j, t] is s < t
        return steps, "triangular"
    return steps, None


def block_spectral_radius(M, block: int) -> tuple[float, str]:
    """Spectral radius of a lifted loop, and how it was obtained.

    When ``time_steps`` finds the loop decoupled or block triangular in
    time (``M`` a ``b x b`` grid of ``block x block`` blocks), its spectrum
    is the union of the spectra of the ``block`` small ``b x b`` matrices
    ``[X_ac[t, t]]``; every ``t`` is solved, in one batched call, and the
    method is ``"block_triangular"``.  A dense solve would scatter such a
    ``block``-fold defective eigenvalue by about ``eps^(1/block)``.  Any
    other matrix, or a ``block`` below 2 or not dividing the size, is one
    step, ``M[None]``, solved whole, and the method is ``"dense"``.
    """
    M = as_square(M)
    steps, structure = time_steps(M, block)
    rho = steps_spectral_radius(M[None] if structure is None else steps)
    return rho, "dense" if structure is None else "block_triangular"


def steps_spectral_radius(steps: np.ndarray) -> float:
    """Largest eigenvalue modulus over a ``(s, b, b)`` stack of matrices,
    all solved in one batched call: the spectral radius of a loop that is
    block triangular in time with these steps on its diagonal."""
    try:
        w = np.linalg.eigvals(steps)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - exotic input
        raise RuntimeError(f"eigenvalue iteration did not converge: {exc}") from exc
    return float(np.abs(w).max())


def induced_norm(M, kind: str = "infinity") -> float:
    """Induced matrix norm.

    ``one`` is the maximum absolute column sum, ``infinity`` the maximum
    absolute row sum, and ``two`` the largest singular value.
    """
    M = as_matrix(M)
    if kind == "one":
        return float(np.abs(M).sum(axis=0).max())
    if kind == "infinity":
        return float(np.abs(M).sum(axis=1).max())
    if kind == "two":
        return float(np.linalg.svd(M, compute_uv=False)[0])
    raise ValueError(f"unknown norm kind {kind!r}; expected one of {NORM_KINDS}")


def cholesky_negative_definite(S: np.ndarray, tol: float = 0.0) -> bool:
    """Whether every eigenvalue of the symmetric ``S`` lies below ``-tol``.

    That holds exactly when ``-S - tol I`` is positive definite, that is
    when its Cholesky factorisation exists.  One triangle is read, so ``S``
    must be exactly symmetric.  This costs about a third of a symmetric
    eigenvalue solve.  A ``(s, n, n)`` stack stands for the block diagonal
    matrix of its steps: one batched factorisation decides for all.
    """
    N = np.negative(S)
    d = np.arange(N.shape[-1])
    N[..., d, d] -= tol
    try:
        np.linalg.cholesky(N)
    except np.linalg.LinAlgError:
        return False
    return True


def negative_definite_schur_term(
    S11: np.ndarray, S21T: np.ndarray, B: np.ndarray | None = None
) -> np.ndarray | None:
    """The Schur term ``C = S21 (-S11)^-1 S21^T`` of a symmetric matrix
    ``[[S11, S21^T], [S21, S22]]`` at its leading block ``S11``.

    That matrix is negative definite exactly when ``S11`` is and its Schur
    complement ``S22 + C`` is.  Returns ``C``, or None when ``S11`` is not
    negative definite (the Cholesky factorisation ``-S11 = L L^T`` fails).
    ``S11`` is a ``(T, c, c)`` stack that stands for the block diagonal
    matrix of its steps (a ``k x k`` matrix is one step), and ``S21T`` the
    ``(T, c, m)`` stack of the matching rows of ``S21^T``: one batched
    Cholesky factors every step.  ``X = L^-1 S21^T`` is one batched product
    with the inverse factors, and ``C = X^T X``, summed over the steps.

    With ``B``, each step of ``S21^T`` is ``[[S21T, 0], [0, B]]``, block
    diagonal over the two halves of its ``c`` rows, and the zero blocks are
    not multiplied: ``L^-1`` is lower triangular, so in those blocks
    ``X = [[X00, 0], [X10, X11]]`` (the rounding that numpy's general
    inverse leaves above its diagonal is taken as the zero it is) and
    ``C = [[X00^T X00 + X10^T X10, X10^T X11], [X11^T X10, X11^T X11]]``,
    formed in place, ``X00`` let go before ``X11`` is formed.
    One triangle of ``S11`` is read, so it must be exactly symmetric.
    """
    try:
        L = np.linalg.cholesky(-S11)
    except np.linalg.LinAlgError:
        return None
    Linv = np.linalg.inv(L)
    if B is None:
        X = (Linv @ S21T).reshape(-1, S21T.shape[-1])
        return X.T @ X
    h, m = S21T.shape[-2:]
    C = np.empty((m + B.shape[-1], m + B.shape[-1]))
    X = (Linv[..., :h, :h] @ S21T).reshape(-1, m)
    C[:m, :m] = X.T @ X
    X = (Linv[..., h:, :h] @ S21T).reshape(-1, m)
    Y = (Linv[..., h:, h:] @ B).reshape(-1, B.shape[-1])
    C[:m, :m] += X.T @ X
    C[:m, m:] = X.T @ Y
    C[m:, :m] = C[:m, m:].T
    C[m:, m:] = Y.T @ Y
    return C


# ---------------------------------------------------------------------------
# Matrix text format: first line "rows cols", then one whitespace-separated
# row per line.  Entries are written with 17 significant digits so the
# parse/emit round trip is exact for float64.
# ---------------------------------------------------------------------------

def format_matrix_text(M) -> str:
    M = as_matrix(M)
    rows, cols = M.shape
    return f"{rows} {cols}\n" + format_g17(M, b" " * (cols - 1) + b"\n").decode("ascii")


def parse_matrix_text(text: str) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"matrix header must be 'rows cols', got {lines[0]!r}")
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ValueError(f"matrix header must be two integers, got {lines[0]!r}") from exc
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix dimensions must be positive, got {rows}x{cols}")
    if len(lines) - 1 != rows:
        raise ValueError(f"expected {rows} data rows, found {len(lines) - 1}")
    data = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != cols:
            raise ValueError(f"expected {cols} entries per row, got {len(parts)}")
        try:
            data.append([float(p) for p in parts])
        except ValueError as exc:
            raise ValueError(f"non-numeric matrix entry in row {ln!r}") from exc
    return as_matrix(np.array(data), "parsed matrix")


def save_matrix(path, M) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_matrix_text(M))


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        return parse_matrix_text(fh.read())
