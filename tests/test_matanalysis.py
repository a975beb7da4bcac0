import numpy as np
import pytest

from iterlearn.matanalysis import (
    block_spectral_radius,
    cholesky_negative_definite,
    eigenvalues,
    format_matrix_text,
    induced_norm,
    negative_definite_schur_term,
    parse_matrix_text,
    spectral_radius,
    time_steps,
)
from iterlearn.stability import LmiCertificate
from iterlearn.textfmt import format_g17

# Third-order benchmark state matrix; characteristic polynomial roots were
# computed independently with arbitrary-precision polynomial root finding
# before this module existed and frozen here.
A_BENCH = np.array([[0.72, 0.0, 0.0], [1.0, -1.04, -0.81], [0.0, 0.81, 0.0]])
A_BENCH_EIGS = np.array(
    [-0.52 - 0.62104750220896952j, -0.52 + 0.62104750220896952j, 0.72 + 0.0j]
)


def char_poly_roots(M):
    """Independent eigenvalue oracle: Faddeev-LeVerrier coefficients of the
    characteristic polynomial, then companion-matrix roots."""
    n = M.shape[0]
    coeffs = [1.0]
    Mk = np.eye(n)
    for k in range(1, n + 1):
        Mk = M @ Mk
        ck = -np.trace(Mk) / k
        coeffs.append(ck)
        Mk += ck * np.eye(n)
    return np.roots(coeffs)


def assert_same_multiset(a, b, tol):
    a = np.sort_complex(np.asarray(a))
    b = np.sort_complex(np.asarray(b))
    assert a.shape == b.shape
    assert np.abs(a - b).max() <= tol


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------

def test_eigenvalues_identity():
    assert_same_multiset(eigenvalues(np.eye(3)), [1.0, 1.0, 1.0], 1e-12)


def test_eigenvalues_pure_imaginary_pair():
    # roots of lambda^2 + 0.25
    w = eigenvalues(np.array([[0.0, 1.0], [-0.25, 0.0]]))
    assert_same_multiset(w, [-0.5j, 0.5j], 1e-12)


def test_eigenvalues_benchmark_matrix():
    w = eigenvalues(A_BENCH)
    assert_same_multiset(w, A_BENCH_EIGS, 1e-9 * max(1.0, induced_norm(A_BENCH)))


def test_eigenvalues_rejects_non_square():
    with pytest.raises(ValueError):
        eigenvalues(np.zeros((2, 3)))


def test_eigenvalues_rejects_non_finite():
    with pytest.raises(ValueError):
        eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_eigenvalues_match_char_poly_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        M = rng.standard_normal((n, n))
        tol = 1e-8 * max(1.0, induced_norm(M))
        assert_same_multiset(eigenvalues(M), char_poly_roots(M), tol)


# ---------------------------------------------------------------------------
# spectral radius
# ---------------------------------------------------------------------------

def test_spectral_radius_identity():
    assert spectral_radius(np.eye(4)) == pytest.approx(1.0, abs=1e-12)


def test_spectral_radius_diagonal():
    assert spectral_radius(np.diag([0.5, -0.8])) == pytest.approx(0.8, abs=1e-12)


def test_spectral_radius_nilpotent():
    assert spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(
        0.0, abs=1e-12
    )


def test_spectral_radius_bounded_by_norms():
    rng = np.random.default_rng(11)
    for _ in range(120):
        n = int(rng.integers(1, 9))
        M = rng.standard_normal((n, n)) * rng.uniform(0.1, 3.0)
        rho = spectral_radius(M)
        for kind in ("one", "infinity", "two"):
            assert rho <= induced_norm(M, kind) + 1e-10 * max(1.0, rho)


def test_spectral_radius_block_upper_triangular():
    rng = np.random.default_rng(13)
    for _ in range(40):
        na, nc = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        A = rng.standard_normal((na, na))
        C = rng.standard_normal((nc, nc))
        B = rng.standard_normal((na, nc))
        M = np.block([[A, B], [np.zeros((nc, na)), C]])
        expected = max(spectral_radius(A), spectral_radius(C))
        assert spectral_radius(M) == pytest.approx(expected, abs=1e-8)


def test_spectral_radius_similarity_invariance():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        M = rng.standard_normal((n, n))
        T = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        if np.linalg.cond(T) > 50:
            continue
        sim = T @ M @ np.linalg.inv(T)
        assert spectral_radius(sim) == pytest.approx(spectral_radius(M), abs=1e-7)


# ---------------------------------------------------------------------------
# block spectral radius of lifted loops
# ---------------------------------------------------------------------------

def lower_triangular_grid(rng, b, T):
    """A ``b x b`` grid of lower-triangular ``T x T`` blocks that vary in t."""
    return [[np.tril(rng.standard_normal((T, T))) for _ in range(b)] for _ in range(b)]


def test_block_radius_time_varying_matches_per_t_closed_form():
    # a 2 x 2 grid: at each t the small matrix [[a, b], [c, d]] has the
    # eigenvalues (tr +- sqrt(tr^2 - 4 det)) / 2; the diagonals are not
    # constant, so every t must be solved
    rng = np.random.default_rng(23)
    for T in (1, 2, 5, 17):
        blocks = lower_triangular_grid(rng, 2, T)
        a, b, c, d = (np.diagonal(blocks[i][j]) for i in (0, 1) for j in (0, 1))
        tr, det = a + d, a * d - b * c
        root = np.sqrt((tr * tr - 4.0 * det).astype(complex))
        closed = max(np.abs((tr + root) / 2).max(), np.abs((tr - root) / 2).max())
        rho, method = block_spectral_radius(np.block(blocks), T)
        if T == 1:
            assert method == "dense"
        else:
            assert method == "block_triangular"
        assert rho == pytest.approx(closed, rel=1e-12)
        # the diagonals are distinct, so the dense solve is accurate here
        assert rho == pytest.approx(spectral_radius(np.block(blocks)), rel=1e-9)


def test_block_radius_lower_triangular_is_largest_diagonal_entry():
    M = np.tril(np.random.default_rng(3).standard_normal((6, 6)))
    rho, method = block_spectral_radius(M, 6)
    assert method == "block_triangular"
    assert rho == np.abs(np.diag(M)).max()


def test_block_radius_non_triangular_takes_dense_solve():
    M = np.random.default_rng(5).standard_normal((6, 6))
    assert block_spectral_radius(M, 3) == (spectral_radius(M), "dense")


def test_block_radius_one_tiny_upper_entry_takes_dense_solve():
    # the structure test is exact: no tolerance lets a nonzero entry pass
    rng = np.random.default_rng(9)
    blocks = lower_triangular_grid(rng, 3, 4)
    blocks[2][1][0, 3] = 1e-300
    M = np.block(blocks)
    assert block_spectral_radius(M, 4) == (spectral_radius(M), "dense")


@pytest.mark.parametrize("block", [0, 1, 4, 7])
def test_block_radius_without_a_block_grid_takes_dense_solve(block):
    M = np.tril(np.random.default_rng(1).standard_normal((6, 6)))
    assert block_spectral_radius(M, block) == (spectral_radius(M), "dense")


def decoupled_grid(rng, b, T):
    """A ``b x b`` grid of diagonal ``T x T`` blocks that vary in t."""
    return [[np.diag(rng.standard_normal(T)) for _ in range(b)] for _ in range(b)]


def test_time_steps_reads_the_diagonal_stack_and_the_coupling():
    rng = np.random.default_rng(29)
    for b, T in ((1, 2), (2, 5), (3, 17)):
        blocks = decoupled_grid(rng, b, T)
        M = np.block(blocks)
        steps, structure = time_steps(M, T)
        assert structure == "decoupled" and steps.shape == (T, b, b)
        for t in range(T):
            expected = [[blocks[i][j][t, t] for j in range(b)] for i in range(b)]
            assert np.array_equal(steps[t], expected)
            # the steps are the whole matrix, time-major
            idx = np.arange(b) * T + t
            assert np.array_equal(M[np.ix_(idx, idx)], steps[t])
        assert block_spectral_radius(M, T) == (
            float(np.abs(np.linalg.eigvals(steps)).max()),
            "block_triangular",
        )
        # one entry below a block's diagonal couples two time steps; one
        # above it breaks the triangular order too, however small
        M[T - 1, 0] = 1e-300
        assert time_steps(M, T)[1] == "triangular"
        M[0, T - 1] = 1e-300
        assert time_steps(M, T)[1] is None
    M = np.tril(rng.standard_normal((6, 6)))
    steps, structure = time_steps(M, 6)
    assert structure == "triangular" and np.array_equal(steps.ravel(), np.diag(M))
    assert time_steps(M, 3)[1] is None  # block (1, 0) is full
    assert time_steps(M, 1) == (None, None) and time_steps(M, 4) == (None, None)


def test_block_radius_rejects_non_square():
    with pytest.raises(ValueError):
        block_spectral_radius(np.zeros((2, 4)), 2)


# ---------------------------------------------------------------------------
# induced norms
# ---------------------------------------------------------------------------

def test_induced_norm_examples():
    M = np.array([[1.0, -2.0], [3.0, 4.0]])
    assert induced_norm(M, "infinity") == pytest.approx(7.0)
    assert induced_norm(M, "one") == pytest.approx(6.0)
    assert induced_norm(np.diag([3.0, -4.0]), "two") == pytest.approx(4.0)


def test_induced_norm_unknown_kind():
    with pytest.raises(ValueError):
        induced_norm(np.eye(2), "frobenius")


# ---------------------------------------------------------------------------
# definiteness
# ---------------------------------------------------------------------------

def negative_definite(S, tol=None):
    """``cholesky_negative_definite`` at ``tol`` (default ``1e-10 |S|_inf``)."""
    if tol is None:
        tol = 1e-10 * induced_norm(S, "infinity")
    return cholesky_negative_definite(S, tol)


def test_negative_definite_trivial():
    assert negative_definite(-np.eye(3), tol=0.0) is True
    assert negative_definite(np.eye(3), tol=0.0) is False


def test_negative_definite_indefinite_by_hand():
    # eigenvalues 1 and -3
    assert negative_definite(np.array([[-1.0, 2.0], [2.0, -1.0]]), tol=0.0) is False


def test_negative_definite_default_tolerance():
    assert negative_definite(-1e-3 * np.eye(2)) is True


def test_negative_definite_zero_scalar_is_not_definite():
    assert negative_definite(np.zeros((1, 1))) is False


def test_negative_definite_rank_deficient_reads_false_like_eigvalsh():
    # an exactly singular semidefinite matrix: the default tol puts it
    # clearly outside, so the Cholesky test and an eigenvalue solve agree
    rng = np.random.default_rng(7)
    for _ in range(3000):
        n = int(rng.integers(2, 9))
        B = rng.standard_normal((n, int(rng.integers(1, n))))
        S = -(B @ B.T)
        S = 0.5 * (S + S.T)
        tol = 1e-10 * induced_norm(S, "infinity")
        assert np.linalg.eigvalsh(S).max() >= -tol
        assert negative_definite(S) is False
        # at tol = 0 the zero eigenvalue sits on the rounding boundary for
        # both methods, so no verdict is asserted there
        assert negative_definite(S, tol=0.0) in (True, False)


def test_negative_definite_agrees_with_eigvalsh():
    rng = np.random.default_rng(8)
    verdicts = []
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        # spectra from well inside to just outside the negative half-line
        w = -np.abs(rng.standard_normal(n)) * 10 ** rng.uniform(-3, 3)
        w[0] = w[0] * rng.uniform(-0.5, 1.0)
        S = (Q * w) @ Q.T
        S = 0.5 * (S + S.T)
        tol = 1e-10 * induced_norm(S, "infinity")
        verdicts.append(negative_definite(S))
        assert verdicts[-1] == bool(np.linalg.eigvalsh(S).max() < -tol)
    assert 0 < sum(verdicts) < len(verdicts)


def test_cholesky_kernel_shifts_by_tol_and_leaves_its_input():
    S = -np.diag([1.0, 2.0, 3.0])
    assert cholesky_negative_definite(S) is True
    assert cholesky_negative_definite(S, 0.5) is True
    assert cholesky_negative_definite(S, 1.0) is False  # -S - I is singular
    assert np.array_equal(S, -np.diag([1.0, 2.0, 3.0]))


def test_schur_term_of_a_stack_is_the_block_diagonal_term():
    # a (T, c, c) stack stands for its block diagonal matrix, and S21T's
    # rows for that matrix's rows, step by step
    rng = np.random.default_rng(9)
    T, c, m = 4, 3, 5
    A = rng.standard_normal((T, c, c))
    S11 = -(A @ np.swapaxes(A, 1, 2) + np.eye(c))
    S21T = rng.standard_normal((T, c, m))
    dense11 = np.zeros((T * c, T * c))
    for t in range(T):
        dense11[t * c : (t + 1) * c, t * c : (t + 1) * c] = S11[t]
    dense21T = S21T.reshape(T * c, m)
    C = negative_definite_schur_term(S11, S21T)
    oracle = dense21T.T @ np.linalg.solve(-dense11, dense21T)
    assert np.abs(C - oracle).max() <= 1e-12 * np.abs(oracle).max()
    dense = negative_definite_schur_term(dense11, dense21T)
    assert np.abs(dense - oracle).max() <= 1e-12 * np.abs(oracle).max()
    S11[2] *= -1  # one step positive definite
    assert negative_definite_schur_term(S11, S21T) is None


# the kernel reads one triangle, so its input must be exactly symmetric; the
# one place asymmetry is bounded (and noise within the bound symmetrised) is
# LmiCertificate, whose blocks every assembled inequality is formed from

def test_negative_definite_rejects_asymmetric():
    with pytest.raises(ValueError, match="assembled Q must be symmetric"):
        LmiCertificate(
            Q11=np.array([[1.0, 0.5], [0.0, 1.0]]), Q21=np.zeros((4, 2)), Q22=np.eye(4), tau=1.0
        )


def test_check_symmetric_bound():
    # the bound is 1e-10 max(1, |Q|_max)
    for scale in (1.0, 1e3):
        Q11 = scale * np.eye(2)
        Q11[0, 1] = 1e-11 * scale
        LmiCertificate(Q11=Q11, Q21=np.zeros((4, 2)), Q22=scale * np.eye(4), tau=1.0)
        Q11[0, 1] = 1e-9 * scale
        with pytest.raises(ValueError, match="assembled Q must be symmetric"):
            LmiCertificate(Q11=Q11, Q21=np.zeros((4, 2)), Q22=scale * np.eye(4), tau=1.0)


# ---------------------------------------------------------------------------
# matrix text format
# ---------------------------------------------------------------------------

def test_matrix_text_round_trip_exact():
    rng = np.random.default_rng(31)
    M = rng.standard_normal((4, 3)) * np.exp(rng.uniform(-20, 20, (4, 3)))
    text = format_matrix_text(M)
    back = parse_matrix_text(text)
    assert back.shape == M.shape
    assert np.array_equal(back, M)


def test_matrix_text_header():
    assert format_matrix_text(np.eye(2)).splitlines()[0] == "2 2"


def reference_matrix_text(M):
    """One f-string per value, kept as the oracle of ``format_matrix_text``."""
    rows, cols = M.shape
    lines = [f"{rows} {cols}"] + [" ".join(f"{v:.17g}" for v in row) for row in M]
    return "\n".join(lines) + "\n"


def test_matrix_text_matches_per_value_formatter():
    rng = np.random.default_rng(32)
    M = rng.standard_normal((6, 5)) * np.exp(rng.uniform(-600, 600, (6, 5)))
    M[0] = [-0.0, 0.0, 5e-324, -1e-310, 2.2250738585072014e-308]
    M[1, :3] = [1.0 / 3.0, -1e16, 1.7976931348623157e308]
    assert format_matrix_text(M) == reference_matrix_text(M)
    assert format_matrix_text(np.array([[2.5]])) == "1 1\n2.5\n"
    # the format refuses non-finite entries; the kernel writes them as the
    # f-string does
    M[2, :3] = [np.nan, np.inf, -np.inf]
    with pytest.raises(ValueError, match="non-finite"):
        format_matrix_text(M)
    body = format_g17(M, b" " * 4 + b"\n").decode("ascii")
    assert "6 5\n" + body == reference_matrix_text(M)


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "2\n1 0\n0 1",
        "2 2\n1 0",
        "2 2\n1 0\n0",
        "2 2\n1 0\n0 x",
        "a b\n1 0\n0 1",
    ],
)
def test_matrix_text_malformed(bad):
    with pytest.raises(ValueError):
        parse_matrix_text(bad)
