"""Updating laws and the closed-loop iteration engine.

Five laws share the pattern "observe, correct the input, repeat":

* ``p_type``            - plain error feedback ``U + K E``
* ``eso_full_state``    - observer estimates only, ``U + K E^ + H D^``
* ``eso_mixed``         - measured error plus disturbance estimate,
                          ``U + K E + H D^``
* ``eso_robust``        - nominal-model observer of the aggregated
                          disturbance, ``U + K (E + Hbar D^)``
* ``eso_model_free``    - the same loop driven by a constructed
                          full-row-rank surrogate instead of any model

The engine owns the true plant only to generate data and ground-truth
diagnostics; the controllers see nothing beyond what their law allows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matanalysis import as_matrix
from .observer import ObserverGain
from .plant import DiffStats, TransferPlant, UncertaintyModel, uncertainty_sequence

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
    "estimate_stability_profile",
    "trace_to_csv",
    "write_trace_csv",
    "read_trace_csv",
    "TRACE_CSV_HEADER",
]

LAW_MODES = ("p_type", "eso_full_state", "eso_mixed", "eso_robust", "eso_model_free")

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
        if self.H is not None:
            self.H = as_matrix(self.H, "H")
            if self.H.shape != (self.K.shape[0], self.K.shape[1]):
                raise ValueError("H must have the same shape as K")
        if self.Hbar is not None:
            self.Hbar = as_matrix(self.Hbar, "Hbar")
            p = self.K.shape[1]
            if self.Hbar.shape != (p, p):
                raise ValueError("Hbar must be square with the error dimension")
        if self.H is not None and self.Hbar is not None:
            resid = np.abs(self.H - self.K @ self.Hbar).max()
            scale = max(1.0, np.abs(self.H).max())
            if resid > 1e-10 * scale:
                raise ValueError("inconsistent gains: H must equal K @ Hbar")


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
        mode = self.law.mode
        if mode != "p_type" and self.gains.observer is None:
            raise ValueError(f"{mode} requires observer gains")
        if mode in ("eso_full_state", "eso_mixed") and self.gains.H is None:
            raise ValueError(f"{mode} requires the compensation gain H")
        if mode in ("eso_robust", "eso_model_free") and self.gains.Hbar is None:
            raise ValueError(f"{mode} requires the compensation gain Hbar")
        if mode == "eso_model_free" and self.law.surrogate.shape != (p, m):
            raise ValueError("surrogate shape must match the plant")


@dataclass
class IterationTrace:
    """Per-iteration record of a closed-loop run.

    ``y = P u + N`` and ``e = target - y`` hold exactly at every recorded
    iteration, and ``ubar_k = -(u_{k+1} - u_k)`` for consecutive rows.
    ``d_true`` is the harness-side ground truth of whatever disturbance
    aggregate the law's observer estimates (absent for ``p_type``), used
    for diagnostics only.  ``diverged_component`` names the part of the
    state that left the divergence cap first (``"u"``, ``"e_hat"`` or
    ``"d_hat"``; None for a run that did not diverge).
    """

    mode: str
    u: np.ndarray
    y: np.ndarray
    e: np.ndarray
    ubar: np.ndarray
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
    mode = config.law.mode
    if mode == "eso_robust":
        return config.plant.nominal, config.plant.delta
    P = config.plant.full()
    if mode == "eso_model_free":
        return config.law.surrogate, P - config.law.surrogate
    return P, None


#: Iterations stepped between two scans of the state records for divergence.
_CHUNK = 32


# a diverged run is stepped on until the batch ends and may overflow; its
# rows past the divergence are dropped
@np.errstate(over="ignore", invalid="ignore")
def run_batch(configs) -> list[IterationTrace]:
    """Iterate the closed loops of several configs together; one trace each.

    The configs must share the law, the plant shape and the iteration
    count.  One iteration does, for the stacked runs, a single run's step
    in the order it is written: ``E = target - (P U + N_k)``, the law's
    ``ubar``, ``U - ubar``, then the observer's ``e_hat - L1 e_hat +
    d_hat + P_used ubar + L1 E`` and ``d_hat - L2 e_hat + L2 E``.  Each
    product is one matvec per run, written into iteration-major records,
    so that every operand is one contiguous block.  The order is kept on
    purpose: a loop whose unstable mode is left unexcited only by an
    exact cancellation (``L1 = P_used K`` with ``|1 - l1| > 1``)
    amplifies every rounding geometrically, and a re-associated step
    drifts from the single-run loop far beyond rounding.  A run takes the
    same arithmetic whether it is stepped alone or with others.  A run is
    truncated and flagged at the first ``k`` at which ``U_{k+1}`` or an
    observer estimate is non-finite or leaves the divergence cap (scanned
    every ``_CHUNK`` iterations); its rows past that ``k`` are dropped.
    """
    configs = list(configs)
    if len({(c.law.mode, c.plant.shape, c.iterations) for c in configs}) != 1:
        raise ValueError("run_batch needs configs sharing the law, plant shape and iterations")
    mode, iterations = configs[0].law.mode, configs[0].iterations
    runs, (p, m) = len(configs), configs[0].plant.shape
    uses_observer = mode != "p_type"

    def stack(get) -> np.ndarray:
        return np.stack([get(c) for c in configs])

    # records are (iteration, run, length, 1): vectors are columns, so
    # every product is a matvec
    P = stack(lambda c: c.plant.full())
    negK = -stack(lambda c: c.gains.K)
    target = stack(lambda c: c.target)[..., None]
    N = np.empty((iterations + 1, runs, p, 1))  # becomes y = P u + N row by row
    u = np.zeros((iterations + 1, runs, m, 1))
    for b, c in enumerate(configs):
        N[:, b, :, 0] = uncertainty_sequence(c.uncertainty.with_seed(c.seed), iterations + 1)
        if c.u0 is not None:
            u[0, b, :, 0] = c.u0
    e = np.empty((iterations, runs, p, 1))
    ubar = np.empty((iterations, runs, m, 1))
    states = [u]
    tmp_p = np.empty((runs, p, 1))
    if uses_observer:
        # ground-truth disturbance aggregate seen by this law's observer
        d_true = np.subtract(N[:-1], N[1:])
        L1 = stack(lambda c: c.gains.observer.L1)
        L2 = stack(lambda c: c.gains.observer.L2)
        P_used = stack(lambda c: _observer_maps(c)[0])
        if mode in ("eso_full_state", "eso_mixed"):
            H, tmp_m = stack(lambda c: c.gains.H), np.empty((runs, m, 1))
        else:
            Hbar = stack(lambda c: c.gains.Hbar)
        e_hat, d_hat = np.zeros((2, iterations + 1, runs, p, 1))
        states += [e_hat, d_hat]

    found: list[tuple[int | None, str | None]] = [(None, None)] * runs
    for k0 in range(0, iterations, _CHUNK):
        k1 = min(k0 + _CHUNK, iterations)
        for k in range(k0, k1):
            U, Y, E, Ub = u[k], N[k], e[k], ubar[k]
            np.matmul(P, U, out=tmp_p)
            Y += tmp_p
            np.subtract(target, Y, out=E)
            if mode == "p_type":
                np.matmul(negK, E, out=Ub)
            elif mode in ("eso_full_state", "eso_mixed"):
                np.matmul(negK, e_hat[k] if mode == "eso_full_state" else E, out=Ub)
                np.matmul(H, d_hat[k], out=tmp_m)
                Ub -= tmp_m
            else:  # eso_robust, eso_model_free
                np.matmul(Hbar, d_hat[k], out=tmp_p)
                tmp_p += E
                np.matmul(negK, tmp_p, out=Ub)
            np.subtract(U, Ub, out=u[k + 1])
            if uses_observer:
                eh, dh, eh1, dh1 = e_hat[k], d_hat[k], e_hat[k + 1], d_hat[k + 1]
                np.matmul(L1, eh, out=tmp_p)
                np.subtract(eh, tmp_p, out=eh1)
                eh1 += dh
                np.matmul(P_used, Ub, out=tmp_p)
                eh1 += tmp_p
                np.matmul(L1, E, out=tmp_p)
                eh1 += tmp_p
                np.matmul(L2, eh, out=tmp_p)
                np.subtract(dh, tmp_p, out=dh1)
                np.matmul(L2, E, out=tmp_p)
                dh1 += tmp_p
        # bad[j, b, i]: state part i (u, e_hat, d_hat) of run b left the
        # cap at k0 + j (NaN compares false)
        bad = np.stack(
            [~(np.abs(s[k0 + 1 : k1 + 1]) <= DIVERGENCE_CAP).all(axis=(2, 3)) for s in states],
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
    rows = max(lengths)
    if uses_observer:
        for b, c in enumerate(configs):
            delta = _observer_maps(c)[1]
            if delta is not None:
                d_true[:rows, b] += delta @ ubar[:rows, b]
        d_true = d_true[:rows, ..., 0]
        e_hat, d_hat = e_hat[:rows, ..., 0], d_hat[:rows, ..., 0]
    u, y, e, ubar = u[:rows, ..., 0], N[:rows, ..., 0], e[:rows, ..., 0], ubar[:rows, ..., 0]

    err_inf = np.abs(e).max(axis=2)
    err_2 = np.linalg.norm(e, axis=2)
    u_norm = np.abs(u).max(axis=2)
    ubar_norm = np.abs(ubar).max(axis=2)
    if uses_observer:
        diff = np.subtract(e, e_hat)
        obs_err = np.abs(diff, out=diff).max(axis=2)
        np.subtract(d_true, d_hat, out=diff)
        np.maximum(obs_err, np.abs(diff, out=diff).max(axis=2), out=obs_err)
        del diff
    else:
        e_hat = d_hat = d_true = None
        obs_err = np.full((rows, runs), np.nan)

    def row(a, b, k):
        return None if a is None else a[:k, b]

    return [
        IterationTrace(
            mode=mode,
            u=u[:k, b],
            y=y[:k, b],
            e=e[:k, b],
            ubar=ubar[:k, b],
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

_TRACE_ROW = "%d,%.17g,%.17g,%.17g,%.17g,%.17g,%d"


def trace_to_csv(trace: IterationTrace) -> str:
    n = len(trace)
    flags = [0] * n
    if trace.diverged and n:
        flags[-1] = 1
    columns = (trace.err_inf, trace.err_2, trace.u_norm, trace.ubar_norm, trace.obs_err_norm)
    rows = zip(range(n), *(c.tolist() for c in columns), flags)
    return "\n".join([TRACE_CSV_HEADER, *(_TRACE_ROW % row for row in rows)]) + "\n"


def write_trace_csv(path, trace: IterationTrace) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(trace_to_csv(trace))


def read_trace_csv(path) -> dict[str, np.ndarray]:
    """Parse a trace CSV back into column arrays (for plotting/reports)."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != TRACE_CSV_HEADER:
        raise ValueError(f"unexpected trace CSV header in {path}")
    if len(lines) == 1:
        raise ValueError(f"trace CSV {path} has no data rows")
    cols = TRACE_CSV_HEADER.split(",")
    data = {c: [] for c in cols}
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(cols):
            raise ValueError(f"malformed trace CSV row: {ln!r}")
        for c, val in zip(cols, parts):
            data[c].append(float(val))
    return {c: np.array(v) for c, v in data.items()}
