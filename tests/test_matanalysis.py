import numpy as np
import pytest

from iterlearn.matanalysis import (
    block_spectral_radius,
    eigenvalues,
    format_matrix_text,
    induced_norm,
    is_negative_definite,
    parse_matrix_text,
    spectral_radius,
)

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

def test_negative_definite_trivial():
    assert is_negative_definite(-np.eye(3), tol=0.0) is True
    assert is_negative_definite(np.eye(3), tol=0.0) is False


def test_negative_definite_indefinite_by_hand():
    # eigenvalues 1 and -3
    assert is_negative_definite(np.array([[-1.0, 2.0], [2.0, -1.0]]), tol=0.0) is False


def test_negative_definite_default_tolerance():
    assert is_negative_definite(-1e-3 * np.eye(2)) is True


def test_negative_definite_symmetrizes_noise():
    S = -np.eye(2)
    S[0, 1] += 1e-13
    assert is_negative_definite(S) is True


def test_negative_definite_rejects_asymmetric():
    with pytest.raises(ValueError):
        is_negative_definite(np.array([[-1.0, 0.5], [0.0, -1.0]]))


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
