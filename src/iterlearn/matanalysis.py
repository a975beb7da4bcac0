"""Dense real-matrix analysis primitives.

Eigenvalues, spectral radii, induced norms, definiteness tests, and the
construction of weighted infinity norms that certify contraction of a
matrix whose spectral radius is below one.  Everything operates on plain
2-D ``numpy`` arrays of finite floats; all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NORM_KINDS",
    "ContractionNormError",
    "WeightedNorm",
    "as_matrix",
    "as_square",
    "eigenvalues",
    "spectral_radius",
    "block_spectral_radius",
    "induced_norm",
    "contraction_norm",
    "is_negative_definite",
    "format_matrix_text",
    "parse_matrix_text",
    "save_matrix",
    "load_matrix",
]

NORM_KINDS = ("one", "infinity", "two")

#: Condition-number cap for contraction weights; beyond this the
#: construction fails explicitly instead of returning a useless weight.
DEFAULT_COND_CAP = 1e12


class ContractionNormError(RuntimeError):
    """Raised when no acceptable contraction weight exists.

    A real square weight combined with the infinity norm cannot push the
    weighted norm of a matrix below ``|re| + |im|`` of its peripheral
    complex eigenvalue pair, and badly defective matrices require weights
    whose condition number exceeds the documented cap.  Both cases raise
    this error rather than silently returning a bound that violates the
    contract.
    """


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


def block_spectral_radius(M, block: int) -> tuple[float, str]:
    """Spectral radius of a lifted loop, and how it was obtained.

    ``M`` is read as a ``b x b`` grid of ``block x block`` blocks.  When
    the strictly upper part of every block is exactly zero, ordering the
    rows and columns time-major makes ``M`` block lower triangular, so its
    spectrum is the union of the spectra of the ``block`` small ``b x b``
    matrices ``[X_ac[t, t]]``; every ``t`` is solved, in one batched call,
    and the method is ``"block_triangular"``.  A dense solve would scatter
    such a ``block``-fold defective eigenvalue by about
    ``eps^(1/block)``.  Any other matrix, or a ``block`` below 2 or not
    dividing the size, takes the dense solve and the method ``"dense"``.
    """
    M = as_square(M)
    n = M.shape[0]
    if block < 2 or n % block:
        return spectral_radius(M), "dense"
    b = n // block
    grid = M.reshape(b, block, b, block).transpose(0, 2, 1, 3)  # (b, b, block, block)
    if np.any(np.triu(grid, 1)):
        return spectral_radius(M), "dense"
    small = np.moveaxis(np.diagonal(grid, axis1=2, axis2=3), 2, 0)  # (block, b, b)
    try:
        w = np.linalg.eigvals(small)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - exotic input
        raise RuntimeError(f"eigenvalue iteration did not converge: {exc}") from exc
    return float(np.abs(w).max()), "block_triangular"


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


@dataclass
class WeightedNorm:
    """A nonsingular weight ``W`` defining the vector norm ``|W x|_inf``.

    ``attained_norm`` is the infinity norm of ``W M W^-1`` for the matrix
    the weight was constructed for, i.e. the operator norm of that matrix
    in the weighted norm.
    """

    weight: np.ndarray
    attained_norm: float

    def apply(self, M) -> float:
        """Operator norm of ``M`` in this weighted norm."""
        M = as_square(M, "M")
        Winv = np.linalg.inv(self.weight)
        return induced_norm(self.weight @ M @ Winv, "infinity")


def _schur_blocks(T: np.ndarray) -> list[tuple[int, int]]:
    """(start, size) of the 1x1 / 2x2 diagonal blocks of a real Schur form."""
    blocks = []
    n = T.shape[0]
    i = 0
    while i < n:
        if i + 1 < n and T[i + 1, i] != 0.0:
            blocks.append((i, 2))
            i += 2
        else:
            blocks.append((i, 1))
            i += 1
    return blocks


def contraction_norm(M, epsilon: float, cond_cap: float = DEFAULT_COND_CAP) -> WeightedNorm:
    """Construct a weighted infinity norm witnessing near-optimal contraction.

    Finds a real nonsingular weight ``W`` with
    ``|W M W^-1|_inf <= spectral_radius(M) + epsilon``; in particular the
    weighted norm is a contraction certificate whenever
    ``spectral_radius(M) + epsilon < 1``.

    The construction takes the real Schur form, balances each 2x2 rotation
    block, and applies geometric per-block diagonal scaling until the off
    block-diagonal part is small enough.  The attained norm is always
    re-measured on the actual product, never inferred.

    Raises
    ------
    ContractionNormError
        If the bound is unreachable with a real square weight (peripheral
        complex pair with ``|re| + |im|`` above the target) or the weight
        condition number would exceed ``cond_cap``.
    """
    M = as_square(M)
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    n = M.shape[0]
    rho = spectral_radius(M)
    target = rho + epsilon

    from scipy.linalg import schur  # deferred: simulate needs no scipy
    T, Z = schur(M, output="real")
    blocks = _schur_blocks(T)

    # Balance 2x2 blocks so their off-diagonal magnitudes match; the
    # infinity norm of a balanced block is |diag| + |offdiag|, the best a
    # real 2x2 similarity can do for a complex pair.
    g = np.ones(n)
    for start, size in blocks:
        if size == 2:
            b, c = T[start, start + 1], T[start + 1, start]
            if b != 0.0 and c != 0.0:
                g[start + 1] = np.sqrt(abs(b) / abs(c))
    T_bal = (g[:, None] * T) / g[None, :]

    floor = 0.0
    for start, size in blocks:
        blk = T_bal[start : start + size, start : start + size]
        floor = max(floor, float(np.abs(blk).sum(axis=1).max()))
    if floor > target:
        raise ContractionNormError(
            f"no real weight can reach {target:.6g}: the balanced diagonal "
            f"blocks already have infinity norm {floor:.6g}"
        )

    block_index = np.empty(n)
    for bi, (start, size) in enumerate(blocks):
        block_index[start : start + size] = bi

    t = 1.0
    attained = np.inf
    for _ in range(64):
        d = t**block_index
        w_diag = d * g
        W = w_diag[:, None] * Z.T
        Winv = Z / w_diag[None, :]
        attained = float(np.abs(W @ M @ Winv).sum(axis=1).max())
        if attained <= target:
            return WeightedNorm(weight=W, attained_norm=attained)
        if w_diag.max() / w_diag.min() > cond_cap:
            break
        t *= 2.0
    raise ContractionNormError(
        f"weight condition number exceeded {cond_cap:.3g} before reaching "
        f"target {target:.6g} (best attained {attained:.6g})"
    )


def is_negative_definite(S, tol: float | None = None) -> bool:
    """Whether a (numerically) symmetric matrix is negative definite.

    The input is symmetrized as ``(S + S^T)/2`` before testing, since
    floating-point asymmetry is noise; asymmetry beyond
    ``1e-10 * max(1, |S|_inf)`` is rejected as an error.  The default
    ``tol`` is ``1e-10 * |S|_inf``; all eigenvalues must lie strictly
    below ``-tol``.
    """
    S = as_square(S, "S")
    scale = max(1.0, induced_norm(S, "infinity"))
    asym = float(np.abs(S - S.T).max())
    if asym > 1e-10 * scale:
        raise ValueError(
            f"matrix is not symmetric: |S - S^T|_max = {asym:.3g} "
            f"exceeds 1e-10 * max(1, |S|_inf)"
        )
    if tol is None:
        tol = 1e-10 * induced_norm(S, "infinity")
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    w = np.linalg.eigvalsh(0.5 * (S + S.T))
    return bool(w.max() < -tol)


# ---------------------------------------------------------------------------
# Matrix text format: first line "rows cols", then one whitespace-separated
# row per line.  Entries are written with 17 significant digits so the
# parse/emit round trip is exact for float64.
# ---------------------------------------------------------------------------

def format_matrix_text(M) -> str:
    M = as_matrix(M)
    rows, cols = M.shape
    lines = [f"{rows} {cols}"]
    for row in M:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


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
