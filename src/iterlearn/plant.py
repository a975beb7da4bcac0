"""Data-transfer plants for iteration-domain learning.

A plant is the linear map from a stacked input to a stacked output over
one task repetition, ``Y_k = P @ U_k + N_k``, with an iteration-varying
uncertainty ``N_k``.  This module builds such plants directly, by lifting
a finite-horizon time-domain system, or by sampling a structured model
perturbation, and provides forward-difference statistics of the
uncertainty sequence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .matanalysis import as_matrix, induced_norm

__all__ = [
    "TransferPlant",
    "StructuredUncertainty",
    "UncertaintyModel",
    "LiftedIlcSystem",
    "DiffStats",
    "lift_ilc",
    "simulate_time_domain",
    "sample_structured_delta",
    "uncertainty_sequence",
    "diff_stats",
    "perturb_elementwise",
    "perturb_system",
    "load_ilc_system",
    "save_ilc_system",
    "default_tail_window",
]

UNCERTAINTY_KINDS = (
    "zero",
    "constant",
    "ramp",
    "cumulative_sine",
    "table",
    "seeded_bounded",
)


def default_tail_window(horizon: int) -> int:
    """Tail window used for limiting-behaviour estimates: max(50, K/10)."""
    return max(50, horizon // 10)


@dataclass
class TransferPlant:
    """True data map ``P = nominal + delta``: a nominal part and a model
    error of the same shape (zero when not given)."""

    nominal: np.ndarray
    delta: np.ndarray | None = None

    def __post_init__(self):
        self.nominal = as_matrix(self.nominal, "nominal")
        if self.delta is None:
            self.delta = np.zeros_like(self.nominal)
        self.delta = as_matrix(self.delta, "delta")
        if self.delta.shape != self.nominal.shape:
            raise ValueError(
                f"delta shape {self.delta.shape} != nominal shape {self.nominal.shape}"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return self.nominal.shape

    def full(self) -> np.ndarray:
        """The true map nominal + delta."""
        return self.nominal + self.delta


@dataclass
class StructuredUncertainty:
    """Structured model error ``delta = phi1 @ sigma @ phi2`` with a
    contraction factor ``sigma`` (largest singular value at most one)."""

    phi1: np.ndarray
    phi2: np.ndarray

    def __post_init__(self):
        self.phi1 = as_matrix(self.phi1, "phi1")
        self.phi2 = as_matrix(self.phi2, "phi2")


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


@dataclass
class UncertaintyModel:
    """Deterministic generator of the iteration-varying uncertainty.

    Kinds: ``zero``; ``constant`` (fixed vector); ``ramp`` (k times a
    slope vector); ``cumulative_sine`` (identical entries given by the
    slowly damped partial sums ``sum_{i<=k} sin(i/200)/sqrt(i+1)``);
    ``table`` (explicit rows, clamped at the last row); and
    ``seeded_bounded`` (uniform in [-bound, bound], reproducible per
    ``(seed, k)``).
    """

    kind: str
    dimension: int
    value: np.ndarray | None = None
    slope: np.ndarray | None = None
    table: np.ndarray | None = None
    bound: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in UNCERTAINTY_KINDS:
            raise ValueError(f"unknown uncertainty kind {self.kind!r}")
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        if self.kind == "constant":
            self.value = self._vector(self.value, "value")
        elif self.kind == "ramp":
            self.slope = self._vector(self.slope, "slope")
        elif self.kind == "table":
            tab = np.asarray(self.table, dtype=float)
            if tab.ndim != 2 or tab.shape[1] != self.dimension or tab.shape[0] < 1:
                raise ValueError("table must be a (rows, dimension) array")
            if not np.all(np.isfinite(tab)):
                raise ValueError("table contains non-finite entries")
            self.table = tab
        elif self.kind == "seeded_bounded":
            if not (np.isfinite(self.bound) and self.bound >= 0):
                raise ValueError(f"bound must be finite and nonnegative, got {self.bound!r}")

    def _vector(self, v, name):
        v = np.asarray(v, dtype=float).reshape(-1)
        if v.shape != (self.dimension,):
            raise ValueError(f"{name} must have length {self.dimension}")
        if not np.all(np.isfinite(v)):
            raise ValueError(f"{name} contains non-finite entries")
        return v

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, dimension: int) -> "UncertaintyModel":
        return cls(kind="zero", dimension=dimension)

    @classmethod
    def constant(cls, value) -> "UncertaintyModel":
        value = np.asarray(value, dtype=float).reshape(-1)
        return cls(kind="constant", dimension=value.size, value=value)

    @classmethod
    def ramp(cls, slope) -> "UncertaintyModel":
        slope = np.asarray(slope, dtype=float).reshape(-1)
        return cls(kind="ramp", dimension=slope.size, slope=slope)

    @classmethod
    def cumulative_sine(cls, dimension: int) -> "UncertaintyModel":
        return cls(kind="cumulative_sine", dimension=dimension)

    @classmethod
    def from_table(cls, table) -> "UncertaintyModel":
        table = np.asarray(table, dtype=float)
        return cls(kind="table", dimension=table.shape[1], table=table)

    @classmethod
    def seeded_bounded(cls, dimension: int, bound: float, seed: int) -> "UncertaintyModel":
        return cls(kind="seeded_bounded", dimension=dimension, bound=bound, seed=seed)

    def with_seed(self, seed: int) -> "UncertaintyModel":
        """Copy with the seed filled in (no-op for unseeded kinds)."""
        if self.kind != "seeded_bounded" or self.seed is not None:
            return self
        return UncertaintyModel(
            kind=self.kind, dimension=self.dimension, bound=self.bound, seed=seed
        )


def uncertainty_sequence(model: UncertaintyModel, n: int) -> np.ndarray:
    """Rows ``N_0 .. N_{n-1}`` as one ``(n, p)`` array, in O(n).

    Row ``k`` does not depend on ``n``: a shorter sequence is a prefix of a longer one.
    """
    if n < 0:
        raise ValueError("sequence length must be nonnegative")
    p = model.dimension
    k = np.arange(n)
    if model.kind == "zero":
        return np.zeros((n, p))
    if model.kind == "constant":
        return np.tile(model.value, (n, 1))
    if model.kind == "ramp":
        return k[:, None] * model.slope
    if model.kind == "cumulative_sine":
        # a cumsum adds in order, so entry k does not depend on later entries
        entries = np.cumsum(np.sin(k / 200.0) / np.sqrt(k + 1.0))
        return np.repeat(entries[:, None], p, axis=1)
    if model.kind == "table":
        return model.table[np.minimum(k, model.table.shape[0] - 1)]
    if model.kind == "seeded_bounded":
        seed = 0 if model.seed is None else model.seed
        b = model.bound
        rows = [np.random.default_rng([seed, j]).uniform(-b, b, size=p) for j in range(n)]
        return np.array(rows).reshape(n, p)
    raise AssertionError(model.kind)


@dataclass
class DiffStats:
    """Estimated bounds on a forward-difference order of the uncertainty.

    ``sup_bound`` is the max of ``|delta^order N_k|_inf`` over the whole
    horizon, ``tail_bound`` over the final ``tail_window`` iterations; the
    tail bound is the finite-horizon stand-in for the limiting behaviour.
    """

    order: int
    sup_bound: float
    tail_bound: float
    horizon: int
    tail_window: int

    def __post_init__(self):
        if not (0 <= self.tail_bound <= self.sup_bound + 1e-18):
            raise ValueError("tail bound must lie in [0, sup bound]")


def diff_stats(
    model: UncertaintyModel, order: int, horizon: int, tail_window: int
) -> DiffStats:
    """Sup and tail bounds of ``|delta^order N_k|_inf`` for k in [0, horizon]."""
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    if not (horizon > tail_window >= 1):
        raise ValueError("need horizon > tail_window >= 1")
    values = uncertainty_sequence(model, horizon + order + 1)
    for _ in range(order):
        values = values[1:] - values[:-1]
    norms = np.abs(values[: horizon + 1]).max(axis=1)
    return DiffStats(
        order=order,
        sup_bound=float(norms.max()),
        tail_bound=float(norms[horizon - tail_window + 1 :].max()),
        horizon=horizon,
        tail_window=tail_window,
    )


@dataclass
class LiftedIlcSystem:
    """Finite-horizon time-domain system to be lifted into one data map.

    ``y(t) = C x(t) + v(t)`` with ``x(t+1) = A x(t) + B u(t) + w(t)`` over
    ``t = 0..horizon-1``; outputs are collected at ``t = 1..horizon``.
    ``C @ B`` must have full row rank.  Every iteration starts from
    ``x = 0``; what varies from one iteration to the next belongs in the
    experiment's uncertainty ``N_k``.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    horizon: int

    def __post_init__(self):
        self.A = as_matrix(self.A, "A")
        self.B = as_matrix(self.B, "B")
        self.C = as_matrix(self.C, "C")
        ns = self.A.shape[0]
        if self.A.shape[1] != ns:
            raise ValueError("A must be square")
        if self.B.shape[0] != ns:
            raise ValueError("B must have as many rows as A")
        if self.C.shape[1] != ns:
            raise ValueError("C must have as many columns as A")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        cb = self.C @ self.B
        sv = np.linalg.svd(cb, compute_uv=False)
        if sv.size < cb.shape[0] or sv[cb.shape[0] - 1] <= 1e-12 * max(1.0, sv[0]):
            raise ValueError("C @ B must have full row rank")

    @property
    def n_states(self) -> int:
        return self.A.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.B.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.C.shape[0]


def lift_ilc(sys: LiftedIlcSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lift a time-domain system into stacked single-iteration maps.

    Returns ``(P, Q_lift, S)``: ``P`` maps the stacked input, ``Q_lift``
    the stacked state disturbance, and ``S`` the initial state into the
    stacked output.  ``P`` is block lower-triangular Toeplitz with block
    ``(i, j) = C A^(i-j) B`` for ``i >= j`` (1-based blocks), ``Q_lift``
    the same with ``C A^(i-j)``, and ``S`` stacks ``C A, C A^2, ...``.
    """
    T = sys.horizon
    no, ni, ns = sys.n_outputs, sys.n_inputs, sys.n_states
    powers = [np.eye(ns)]
    for _ in range(T):
        powers.append(sys.A @ powers[-1])
    CA = [sys.C @ Ak for Ak in powers]

    # one block per lag, plus a zero block at index T for the upper part
    lag = np.subtract.outer(np.arange(T), np.arange(T))
    lag[lag < 0] = T

    def toeplitz(blocks: list[np.ndarray]) -> np.ndarray:
        stack = np.concatenate([np.stack(blocks), np.zeros((1,) + blocks[0].shape)])
        rows, cols = blocks[0].shape
        return stack[lag].transpose(0, 2, 1, 3).reshape(T * rows, T * cols)

    P = toeplitz([CAk @ sys.B for CAk in CA[:T]])
    Q = toeplitz(CA[:T])
    S = np.concatenate(CA[1:])
    return P, Q, S


def simulate_time_domain(
    sys: LiftedIlcSystem,
    u,
    w=None,
    v=None,
    x0=None,
) -> np.ndarray:
    """Roll one iteration through the time domain and stack the outputs.

    ``u`` stacks ``u(0..T-1)``, ``w`` stacks ``w(0..T-1)``, ``v`` stacks
    ``v(1..T)``; the result stacks ``y(1..T)`` and equals
    ``P @ u + Q_lift @ w + v + S @ x0`` exactly; ``x0`` defaults to zero.
    """
    T = sys.horizon
    u = np.asarray(u, dtype=float).reshape(-1)
    if u.shape != (T * sys.n_inputs,):
        raise ValueError(f"input stack must have length {T * sys.n_inputs}")
    w = np.zeros(T * sys.n_states) if w is None else np.asarray(w, dtype=float).reshape(-1)
    if w.shape != (T * sys.n_states,):
        raise ValueError(f"state-noise stack must have length {T * sys.n_states}")
    v = np.zeros(T * sys.n_outputs) if v is None else np.asarray(v, dtype=float).reshape(-1)
    if v.shape != (T * sys.n_outputs,):
        raise ValueError(f"output-noise stack must have length {T * sys.n_outputs}")
    x = np.zeros(sys.n_states) if x0 is None else np.asarray(x0, dtype=float).reshape(-1)
    if x.shape != (sys.n_states,):
        raise ValueError("x0 must match the state dimension")

    ni, ns, no = sys.n_inputs, sys.n_states, sys.n_outputs
    y = np.zeros(T * no)
    for t in range(T):
        x = sys.A @ x + sys.B @ u[t * ni : (t + 1) * ni] + w[t * ns : (t + 1) * ns]
        y[t * no : (t + 1) * no] = sys.C @ x + v[t * no : (t + 1) * no]
    return y


def perturb_elementwise(M, level: float, rng: np.random.Generator) -> np.ndarray:
    """Multiplicative elementwise perturbation ``M * (1 + level * xi)``.

    ``xi`` is uniform on [-1, 1] per element, so every element moves by at
    most ``level`` relative to its value and zero elements stay zero.
    """
    M = np.asarray(M, dtype=float)
    return M * (1.0 + level * rng.uniform(-1.0, 1.0, size=M.shape))


def perturb_system(sys: LiftedIlcSystem, level: float, seed: int) -> LiftedIlcSystem:
    """Seeded elementwise perturbation of A, B and C (in that order)."""
    rng = np.random.default_rng(seed)
    return LiftedIlcSystem(
        A=perturb_elementwise(sys.A, level, rng),
        B=perturb_elementwise(sys.B, level, rng),
        C=perturb_elementwise(sys.C, level, rng),
        horizon=sys.horizon,
    )


# ---------------------------------------------------------------------------
# ILC system file (JSON)
# ---------------------------------------------------------------------------

_ZERO_X0 = {"kind": "zero"}


def save_ilc_system(path, sys: LiftedIlcSystem) -> None:
    doc = {
        "format_version": 1,
        "A": sys.A.tolist(),
        "B": sys.B.tolist(),
        "C": sys.C.tolist(),
        "horizon": sys.horizon,
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def parse_ilc_system(doc) -> LiftedIlcSystem:
    """The system of a parsed ILC system file; ``ValueError`` if malformed.

    Every iteration starts from ``x = 0``, so the only ``x0_policy``
    accepted is the ``{"kind": "zero"}`` that older files carry.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"ILC system file must be a JSON object, got {type(doc).__name__}")
    if doc.get("x0_policy", _ZERO_X0) != _ZERO_X0:
        raise ValueError(
            f"x0_policy {json.dumps(doc['x0_policy'])} is not supported: every iteration "
            "starts from x = 0; put initial-state variation in the experiment's 'uncertainty'"
        )
    if "uncertainty" in doc:
        raise ValueError(
            "an ILC system file carries no uncertainty; set the experiment's 'uncertainty'"
        )
    try:
        horizon = doc["horizon"]
        if isinstance(horizon, bool) or not isinstance(horizon, int):
            raise ValueError(f"horizon must be an integer, got {json.dumps(horizon)}")
        return LiftedIlcSystem(
            A=np.asarray(doc["A"], dtype=float),
            B=np.asarray(doc["B"], dtype=float),
            C=np.asarray(doc["C"], dtype=float),
            horizon=horizon,
        )
    except KeyError as exc:
        raise ValueError(f"ILC system file missing field {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"A, B and C must be nested arrays of numbers: {exc}") from exc


def load_ilc_system(path) -> LiftedIlcSystem:
    with open(path, "r", encoding="ascii") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON in ILC system file: {exc}") from exc
    return parse_ilc_system(doc)
