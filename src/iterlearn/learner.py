"""Updating laws and the closed-loop iteration engine.

Five laws share the pattern "observe, correct the input, repeat".  Each
is one step, ``law_map``, runs the loop of one catalog condition and has
its observer on one map (``_observer_maps``): ``p_type`` (``eq04``, no
observer), ``eso_full_state`` (``eq04`` and ``eq17``, the true map),
``eso_mixed`` (``eq41``) and ``eso_robust`` (``eq62``) on the nominal
map, and ``eso_model_free`` (``eq102``) on a full-row-rank surrogate.
The engine owns the true plant only to generate data and ground-truth
diagnostics; the controllers see nothing beyond what their law allows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .matanalysis import as_matrix
from .observer import ObserverGain, error_dynamics_matrix
from .plant import DiffStats, TransferPlant, UncertaintyModel, uncertainty_sequence
from .textfmt import g17_fields, int_fields, join_fields

__all__ = [
    "LAW_MODES",
    "GainSet",
    "LearningLaw",
    "SimulationConfig",
    "IterationTrace",
    "StabilityProfile",
    "synth_H_pseudo",
    "synth_Hbar",
    "run",
    "run_batch",
    "law_map",
    "estimate_stability_profile",
    "trace_to_csv",
    "write_trace_csv",
    "read_trace_csv",
    "TRACE_CSV_HEADER",
]

#: The gains each design applies besides ``K``, as ``(GainSet attribute, what
#: it is called)``; the observer design is the observer loop on its own.
DESIGN_GAINS = {
    "learning": (),
    "observer": (("observer", "observer gains"),),
    "compensated": (("observer", "observer gains"), ("H", "the compensation gain H")),
    "aggregated": (("observer", "observer gains"), ("Hbar", "the compensation gain Hbar")),
}

#: Each law's design.
LAW_DESIGNS = {
    "p_type": "learning",
    "eso_full_state": "compensated",
    "eso_mixed": "compensated",
    "eso_robust": "aggregated",
    "eso_model_free": "aggregated",
}

LAW_MODES = tuple(LAW_DESIGNS)

#: Input or observer-estimate magnitude beyond which a run is declared divergent.
DIVERGENCE_CAP = 1e12

TRACE_CSV_HEADER = "k,err_inf,err_2,u_norm,ubar_norm,obs_err_norm,diverged"


def synth_H_pseudo(P) -> np.ndarray:
    """Right pseudo-inverse compensation gain ``P^T (P P^T)^-1``.

    Requires full row rank; the result satisfies ``P @ H = I`` so the
    disturbance estimate is cancelled exactly in the error recursion.
    """
    P = as_matrix(P, "P")
    sv = np.linalg.svd(P, compute_uv=False)
    if sv.size < P.shape[0] or sv[P.shape[0] - 1] <= 1e-10 * sv[0]:
        raise ValueError("P must have full row rank for the pseudo-inverse gain")
    return np.linalg.solve(P @ P.T, P).T


def synth_Hbar(P_used, K) -> np.ndarray:
    """Compensation gain ``(P_used @ K)^-1`` for the aggregated laws."""
    P_used = as_matrix(P_used, "P_used")
    K = as_matrix(K, "K")
    M = P_used @ K
    if M.shape[0] != M.shape[1]:
        raise ValueError("P_used @ K must be square")
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[-1] <= 1e-12 * max(1.0, sv[0]):
        raise ValueError("P_used @ K is singular; cannot form its inverse")
    return np.linalg.inv(M)


@dataclass
class GainSet:
    """Learning gain plus optional compensation and observer gains.

    When both ``H`` and ``Hbar`` are supplied they must be consistent,
    ``H = K @ Hbar``, since the aggregated laws only ever apply ``H``
    through that factorization.
    """

    K: np.ndarray
    H: np.ndarray | None = None
    Hbar: np.ndarray | None = None
    observer: ObserverGain | None = None

    def __post_init__(self):
        self.K = as_matrix(self.K, "K")
        p = self.K.shape[1]
        if self.H is not None:
            self.H = as_matrix(self.H, "H")
            if self.H.shape != (self.K.shape[0], self.K.shape[1]):
                raise ValueError("H must have the same shape as K")
        if self.Hbar is not None:
            self.Hbar = as_matrix(self.Hbar, "Hbar")
            if self.Hbar.shape != (p, p):
                raise ValueError("Hbar must be square with the error dimension")
        if self.H is not None and self.Hbar is not None:
            resid = np.abs(self.H - self.K @ self.Hbar).max()
            scale = max(1.0, np.abs(self.H).max())
            if resid > 1e-10 * scale:
                raise ValueError("inconsistent gains: H must equal K @ Hbar")
        if self.observer is not None and self.observer.p != p:
            raise ValueError(f"observer gains must be {p}x{p}, the error dimension of K")


def require_gains(design: str, gains: GainSet, who: str) -> None:
    """Raise ``ValueError`` naming the first gain of ``design`` that ``gains`` lack."""
    for attr, name in DESIGN_GAINS[design]:
        if getattr(gains, attr) is None:
            raise ValueError(f"{who} requires {name}")


@dataclass
class LearningLaw:
    """Updating-law selector; ``eso_model_free`` carries its surrogate map."""

    mode: str
    surrogate: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in LAW_MODES:
            raise ValueError(f"unknown law mode {self.mode!r}; expected one of {LAW_MODES}")
        if self.mode == "eso_model_free":
            if self.surrogate is None:
                raise ValueError("eso_model_free requires a surrogate map")
            self.surrogate = as_matrix(self.surrogate, "surrogate")
            sv = np.linalg.svd(self.surrogate, compute_uv=False)
            rows = self.surrogate.shape[0]
            if sv.size < rows or sv[rows - 1] <= 1e-10 * max(1.0, sv[0]):
                raise ValueError("surrogate must have full row rank")
        elif self.surrogate is not None:
            raise ValueError("surrogate is only meaningful for eso_model_free")


def _check_gains(mode: str, gains: GainSet) -> None:
    """Raise unless ``mode`` is a law and ``gains`` hold every gain it applies."""
    if mode not in LAW_MODES:
        raise ValueError(f"unknown law mode {mode!r}; expected one of {LAW_MODES}")
    require_gains(LAW_DESIGNS[mode], gains, mode)


@dataclass
class SimulationConfig:
    """Everything one closed-loop run needs, fixed up front."""

    plant: TransferPlant
    target: np.ndarray
    uncertainty: UncertaintyModel
    gains: GainSet
    law: LearningLaw
    iterations: int
    u0: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        p, m = self.plant.shape
        self.target = np.asarray(self.target, dtype=float).reshape(-1)
        if self.target.shape != (p,):
            raise ValueError(f"target must have length {p}")
        if not np.all(np.isfinite(self.target)):
            raise ValueError("target contains non-finite entries")
        if self.uncertainty.dimension != p:
            raise ValueError("uncertainty dimension must match the plant output")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.gains.K.shape != (m, p):
            raise ValueError(f"K must be {m}x{p} for this plant")
        if self.u0 is not None:
            self.u0 = np.asarray(self.u0, dtype=float).reshape(-1)
            if self.u0.shape != (m,):
                raise ValueError(f"u0 must have length {m}")
            if not np.all(np.isfinite(self.u0)):
                raise ValueError("u0 contains non-finite entries")
        _check_gains(self.law.mode, self.gains)
        if self.law.mode == "eso_model_free" and self.law.surrogate.shape != (p, m):
            raise ValueError("surrogate shape must match the plant")


@dataclass
class IterationTrace:
    """Per-iteration record of a closed-loop run.

    The five statistics (``err_inf`` .. ``obs_err_norm``, one entry per
    iteration) are always there.  The states are recorded only when
    ``run_batch`` is asked for them (``run`` always is); otherwise ``u``
    .. ``d_true`` are None.  ``y = P u + N`` and ``e = target - y`` hold
    exactly at every recorded iteration, and ``ubar_k = -(u_{k+1} -
    u_k)`` for consecutive rows.  ``d_true`` is the harness-side ground
    truth of whatever disturbance aggregate the law's observer estimates
    (absent for ``p_type``), used for diagnostics only.
    ``diverged_component`` names the part of the state that left the
    divergence cap first (``"u"``, ``"e_hat"`` or ``"d_hat"``; None for a
    run that did not diverge).
    """

    mode: str
    u: np.ndarray | None
    y: np.ndarray | None
    e: np.ndarray | None
    ubar: np.ndarray | None
    e_hat: np.ndarray | None
    d_hat: np.ndarray | None
    d_true: np.ndarray | None
    err_inf: np.ndarray
    err_2: np.ndarray
    u_norm: np.ndarray
    ubar_norm: np.ndarray
    obs_err_norm: np.ndarray
    diverged: bool
    diverged_at: int | None
    diverged_component: str | None = None

    def __len__(self) -> int:
        return self.err_inf.shape[0]


def run(config: SimulationConfig) -> IterationTrace:
    """Iterate one closed loop and record its trace (see ``run_batch``)."""
    return run_batch([config])[0]


def _observer_maps(config: SimulationConfig):
    """The input map the law's observer knows, and the part of the true map
    it does not know (None when it knows the true map)."""
    mode, plant = config.law.mode, config.plant
    if mode == "eso_full_state":
        return plant.full(), None
    if mode == "eso_model_free":
        return config.law.surrogate, plant.full() - config.law.surrogate
    return plant.nominal, plant.delta


def law_map(mode: str, P, gains: GainSet, P_used=None) -> np.ndarray:
    """The homogeneous step ``X_{k+1} = A X_k`` of a law's loop on the map
    ``P`` with its observer on ``P_used`` (default ``P``), in the error
    coordinates ``X = [E; e_hat; d_hat]`` (``[E]`` for ``p_type``): ``Du =
    Ke E + Kh e_hat + Hd d_hat`` with ``(Ke, Kh, Hd)`` ``(K, 0, 0)``, ``(0,
    K, H)`` (``eso_full_state``), ``(K, 0, H)`` (``eso_mixed``) or ``(K, 0,
    K Hbar)`` (aggregated laws), then ``E' = E - P Du``, ``e_hat' = L1 E +
    (I - L1) e_hat + d_hat - P_used Du`` and ``d_hat' = L2 E - L2 e_hat +
    d_hat``."""
    _check_gains(mode, gains)
    P, K = as_matrix(P, "P"), gains.K
    if mode == "p_type":
        return np.eye(len(P)) - P @ K
    p, zero, og = len(P), np.zeros_like(K), gains.observer
    Hd = gains.H if LAW_DESIGNS[mode] == "compensated" else K @ gains.Hbar
    G = np.hstack([zero, K, Hd] if mode == "eso_full_state" else [K, zero, Hd])  # Du = G X
    A = np.block([[np.eye(p), np.zeros((p, 2 * p))], [og.stacked, error_dynamics_matrix(og)]])
    A[:p] -= P @ G
    A[p : 2 * p] -= (P if P_used is None else as_matrix(P_used, "P_used")) @ G
    return A


#: Iterations stepped between two scans of the states for divergence, and
#: the rows of the window ``run_batch`` steps them in.
_CHUNK = 32


def _product(mats, negate: bool = False):
    """``f(x, out=...)`` writing ``A_b @ x_b`` (``-A_b @ x_b`` if ``negate``)
    for each run ``b``, given the runs' ``r x c`` matrices ``A_b`` and their
    ``(runs, c, 1)`` columns ``x``.

    Square matrices that are all zero off the diagonal are applied as
    ``d * x`` with their ``(runs, r, 1)`` diagonals ``d``.  A row of a
    matvec with one nonzero entry is that one rounded product plus exact
    zeros, so both give the same bits, except that a zero may come out as
    ``-0.0`` where ``matmul`` gives ``+0.0``, and ``0 * inf`` gives 0 where
    ``matmul`` gives NaN.  Matrices that are all bitwise equal (signed
    zeros and NaN payloads count) are applied as one ``(r, c)`` matrix,
    which ``np.matmul`` broadcasts to the same per-run matvec as a stack of
    copies, so the bits are the stack's and the one matrix stays in cache.
    Any other matrices go to ``np.matmul`` as a ``(runs, r, c)`` stack.
    """
    mats = list(mats)
    first = mats[0]
    r, c = first.shape
    if r == c and all(np.count_nonzero(A) == np.count_nonzero(np.diagonal(A)) for A in mats):
        operand, func = np.stack([np.diagonal(A) for A in mats])[..., None], np.multiply
    else:
        bits = first.view(np.int64)
        shared = all(A is first or np.array_equal(A.view(np.int64), bits) for A in mats)
        operand, func = (first if shared else np.stack(mats)), np.matmul
    return partial(func, -operand if negate else operand)


# a diverged run is stepped on until the batch ends and may overflow; its
# rows past the divergence are dropped
@np.errstate(over="ignore", invalid="ignore")
def run_batch(configs, states: bool = True) -> list[IterationTrace]:
    """Iterate the closed loops of several configs together; one trace each.

    The configs must share the law, the plant shape and the iteration
    count.  One iteration does, for the stacked runs, a single run's step
    (``law_map``) in the order it is written: ``E = target - (P U + N_k)``,
    the law's ``ubar``, ``U - ubar``, then the observer's ``e_hat - L1
    e_hat + d_hat + P_used ubar + L1 E`` and ``d_hat - L2 e_hat + L2 E``.
    Each product is one matvec per run, with the bits ``_product`` keeps,
    written into iteration-major records, so that every operand is one
    contiguous block.  The order is kept on purpose: a loop whose unstable
    mode is left unexcited only by an exact cancellation (``L1 = P_used
    K`` with ``|1 - l1| > 1``) amplifies every rounding geometrically, and
    a re-associated step drifts from the single-run loop far beyond
    rounding.  A run takes the same arithmetic whether it is stepped alone
    or with others.

    The iterations are stepped in chunks of ``_CHUNK``, each in a window
    of rows indexed by ``k - offset``, and each chunk's statistics are
    taken while its rows are in cache.  With ``states`` the window is the
    whole record (offset 0) and the traces keep every state; without, it
    is one reused window of ``_CHUNK + 1`` rows (offset the chunk's first
    ``k``) whose last state row starts the next chunk, and the traces'
    state fields are None.  Either way the statistics have the same bits.
    A run is truncated and flagged at the first ``k`` at which ``U_{k+1}``
    or an observer estimate is non-finite or leaves the divergence cap
    (scanned once per chunk); its rows past that ``k`` are dropped.
    """
    configs = list(configs)
    if len({(c.law.mode, c.plant.shape, c.iterations) for c in configs}) != 1:
        raise ValueError("run_batch needs configs sharing the law, plant shape and iterations")
    mode, iterations = configs[0].law.mode, configs[0].iterations
    runs, (p, m) = len(configs), configs[0].plant.shape
    uses_observer = mode != "p_type"

    # records are (iteration, run, length, 1): vectors are columns, so
    # every product is a matvec
    P = _product(c.plant.full() for c in configs)
    negK = _product((c.gains.K for c in configs), negate=True)
    target = np.stack([c.target for c in configs])[..., None]
    # the whole drift, as a cumulative one is a single cumsum
    N = np.empty((iterations + 1, runs, p, 1))  # becomes y = P u + N row by row
    rows = iterations if states else _CHUNK
    u = np.zeros((rows + 1, runs, m, 1))
    for b, c in enumerate(configs):
        N[:, b, :, 0] = uncertainty_sequence(c.uncertainty.with_seed(c.seed), iterations + 1)
        if c.u0 is not None:
            u[0, b, :, 0] = c.u0
    e = np.empty((rows, runs, p, 1))
    ubar = np.empty((rows, runs, m, 1))
    carried = [u]
    tmp_p = np.empty((runs, p, 1))
    err_inf, err_2, u_norm, ubar_norm, obs_err = np.empty((5, iterations, runs))
    if uses_observer:
        # ground-truth disturbance aggregate seen by this law's observer:
        # N_k - N_{k+1}, plus delta ubar_k where it does not know the true map
        d_true = np.empty((rows, runs, p, 1))
        maps = [_observer_maps(c) for c in configs]
        deltas = None if maps[0][1] is None else np.stack([delta for _, delta in maps])
        L1 = _product(c.gains.observer.L1 for c in configs)
        L2 = _product(c.gains.observer.L2 for c in configs)
        P_used = _product(used for used, _ in maps)
        if mode in ("eso_full_state", "eso_mixed"):
            H, tmp_m = _product(c.gains.H for c in configs), np.empty((runs, m, 1))
        else:
            Hbar = _product(c.gains.Hbar for c in configs)
        e_hat, d_hat = np.zeros((2, rows + 1, runs, p, 1))
        carried += [e_hat, d_hat]
    else:
        e_hat = d_hat = d_true = None
        obs_err.fill(np.nan)

    found: list[tuple[int | None, str | None]] = [(None, None)] * runs
    for k0 in range(0, iterations, _CHUNK):
        k1 = min(k0 + _CHUNK, iterations)
        offset = 0 if states else k0
        if offset:
            for s in carried:
                s[0] = s[_CHUNK]
        w = slice(k0 - offset, k1 - offset)
        if uses_observer:  # before these rows of N become y
            np.subtract(N[k0:k1], N[k0 + 1 : k1 + 1], out=d_true[w])
        for k in range(k0, k1):
            i = k - offset
            U, Y, E, Ub = u[i], N[k], e[i], ubar[i]
            P(U, out=tmp_p)
            Y += tmp_p
            np.subtract(target, Y, out=E)
            if mode == "p_type":
                negK(E, out=Ub)
            elif mode in ("eso_full_state", "eso_mixed"):
                negK(e_hat[i] if mode == "eso_full_state" else E, out=Ub)
                H(d_hat[i], out=tmp_m)
                Ub -= tmp_m
            else:  # eso_robust, eso_model_free
                Hbar(d_hat[i], out=tmp_p)
                tmp_p += E
                negK(tmp_p, out=Ub)
            np.subtract(U, Ub, out=u[i + 1])
            if uses_observer:
                eh, dh, eh1, dh1 = e_hat[i], d_hat[i], e_hat[i + 1], d_hat[i + 1]
                L1(eh, out=tmp_p)
                np.subtract(eh, tmp_p, out=eh1)
                eh1 += dh
                P_used(Ub, out=tmp_p)
                eh1 += tmp_p
                L1(E, out=tmp_p)
                eh1 += tmp_p
                L2(eh, out=tmp_p)
                np.subtract(dh, tmp_p, out=dh1)
                L2(E, out=tmp_p)
                dh1 += tmp_p

        ew, stats = e[w, ..., 0], slice(k0, k1)
        np.abs(ew).max(axis=2, out=err_inf[stats])
        err_2[stats] = np.linalg.norm(ew, axis=2)
        np.abs(u[w, ..., 0]).max(axis=2, out=u_norm[stats])
        np.abs(ubar[w, ..., 0]).max(axis=2, out=ubar_norm[stats])
        if uses_observer:
            if deltas is not None:
                d_true[w] += deltas @ ubar[w]
            diff = np.subtract(ew, e_hat[w, ..., 0])
            np.abs(diff, out=diff).max(axis=2, out=obs_err[stats])
            np.subtract(d_true[w, ..., 0], d_hat[w, ..., 0], out=diff)
            np.maximum(obs_err[stats], np.abs(diff, out=diff).max(axis=2), out=obs_err[stats])

        # max propagates NaN, which compares false: only a chunk with a
        # state outside the cap is searched row by row
        after = slice(w.start + 1, w.stop + 1)
        if all(np.abs(s[after]).max() <= DIVERGENCE_CAP for s in carried):
            continue
        # bad[j, b, i]: state part i (u, e_hat, d_hat) of run b left the
        # cap at k0 + j
        bad = np.stack(
            [~(np.abs(s[after]) <= DIVERGENCE_CAP).all(axis=(2, 3)) for s in carried],
            axis=2,
        )
        for b in np.flatnonzero(bad.any(axis=(0, 2))):
            if found[b][0] is None:
                j = int(np.argmax(bad[:, b].any(axis=1)))
                found[b] = (k0 + j, ("u", "e_hat", "d_hat")[int(np.argmax(bad[j, b]))])
        if None not in [at for at, _ in found]:
            break
    diverged_at = [at for at, _ in found]
    lengths = [iterations if at is None else at + 1 for at in diverged_at]

    def row(a, b, k):
        return a[:k, b, :, 0] if states and a is not None else None

    return [
        IterationTrace(
            mode=mode,
            u=row(u, b, k),
            y=row(N, b, k),
            e=row(e, b, k),
            ubar=row(ubar, b, k),
            e_hat=row(e_hat, b, k),
            d_hat=row(d_hat, b, k),
            d_true=row(d_true, b, k),
            err_inf=err_inf[:k, b],
            err_2=err_2[:k, b],
            u_norm=u_norm[:k, b],
            ubar_norm=ubar_norm[:k, b],
            obs_err_norm=obs_err[:k, b],
            diverged=at is not None,
            diverged_at=at,
            diverged_component=found[b][1],
        )
        for b, (k, at) in enumerate(zip(lengths, diverged_at))
    ]


#: Largest tail error consistent with a vanishing variation-rate tail.
PROFILE_ATOL = 1e-8
#: Largest tail error, as a multiple of a nonzero variation-rate tail, that is consistent.
PROFILE_RATIO_CAP = 1e6


@dataclass
class StabilityProfile:
    """Empirical boundedness/attractiveness summary of one trace.

    The tail error is compared against the tail bounds of the uncertainty
    variation (order 1) and variation rate (order 2); ratios are omitted
    when the respective bound is numerically zero.  The trace is called
    superattractive-consistent when its tail error is explained by the
    variation-rate tail: below ``PROFILE_ATOL`` if that tail vanishes,
    otherwise within ``PROFILE_RATIO_CAP`` times it.
    """

    sup_err: float
    tail_err: float
    tail_window: int
    ratio_variation: float | None
    ratio_variation_rate: float | None
    superattractive_consistent: bool


def estimate_stability_profile(
    trace: IterationTrace,
    variation_stats: DiffStats,
    variation_rate_stats: DiffStats,
    tail_window: int,
) -> StabilityProfile:
    """Empirical stability estimates from a recorded trace, judged against
    ``PROFILE_ATOL`` and ``PROFILE_RATIO_CAP`` (see ``StabilityProfile``)."""
    if variation_stats.order != 1 or variation_rate_stats.order != 2:
        raise ValueError("expected difference statistics of orders 1 and 2")
    n = len(trace)
    if n <= tail_window:
        raise ValueError("trace must be longer than the tail window")
    sup_err = float(trace.err_inf.max())
    tail_err = float(trace.err_inf[n - tail_window :].max())

    def ratio(bound: float) -> float | None:
        return None if bound < 1e-14 else tail_err / bound

    d2 = variation_rate_stats.tail_bound
    consistent = tail_err < PROFILE_ATOL if d2 < 1e-14 else tail_err <= PROFILE_RATIO_CAP * d2
    return StabilityProfile(
        sup_err=sup_err,
        tail_err=tail_err,
        tail_window=tail_window,
        ratio_variation=ratio(variation_stats.tail_bound),
        ratio_variation_rate=ratio(d2),
        superattractive_consistent=consistent,
    )


# ---------------------------------------------------------------------------
# Trace CSV: one row per iteration, floats at 17 significant digits.  The
# diverged column is 0 except on the final recorded row of a run that hit
# the divergence cap.
# ---------------------------------------------------------------------------

def _trace_csv_rows(trace: IterationTrace) -> bytes:
    """The CSV rows: ``k`` and the flag as integers, each float as
    ``'%.17g'``, joined from one table of 32-byte fields."""
    n = len(trace)
    columns = (trace.err_inf, trace.err_2, trace.u_norm, trace.ubar_norm, trace.obs_err_norm)
    flag = np.zeros(n, np.int64)
    if trace.diverged and n:
        flag[-1] = 1
    fields = np.empty((n, len(columns) + 2, 32), np.uint8)
    fields[:, 0] = int_fields(np.arange(n))
    fields[:, 1:-1] = g17_fields(np.column_stack(columns))
    fields[:, -1] = int_fields(flag)
    return join_fields(fields, b",,,,,,\n")


def trace_to_csv(trace: IterationTrace) -> str:
    return TRACE_CSV_HEADER + "\n" + _trace_csv_rows(trace).decode("ascii")


def write_trace_csv(path, trace: IterationTrace) -> None:
    rows = _trace_csv_rows(trace)
    with open(path, "wb") as fh:
        fh.write(TRACE_CSV_HEADER.encode("ascii") + b"\n")
        fh.write(rows)


def read_trace_csv(path) -> dict[str, np.ndarray]:
    """Parse a trace CSV back into column arrays (for plotting/reports)."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != TRACE_CSV_HEADER:
        raise ValueError(f"unexpected trace CSV header in {path}")
    if len(lines) == 1:
        raise ValueError(f"trace CSV {path} has no data rows")
    cols = TRACE_CSV_HEADER.split(",")
    for ln in lines[1:]:
        if ln.count(",") != len(cols) - 1:
            raise ValueError(f"malformed trace CSV row: {ln!r}")
    table = np.array(",".join(lines[1:]).split(","), dtype=float).reshape(-1, len(cols))
    return dict(zip(cols, table.T.copy()))
