"""Extended-state observers over the iteration axis.

The tracking error and the aggregated disturbance are stacked into one
extended state whose dynamics are fixed and block-structured; an observer
with gains ``(L1, L2)`` estimates both from the measured error alone.
Four observer variants used by the updating laws share this single
recursion and differ only in the input matrix injected (the true map, a
nominal model, or a surrogate), so one parametrized implementation covers
all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matanalysis import as_matrix, block_spectral_radius

__all__ = [
    "ObserverGain",
    "ObserverState",
    "ExtendedSystem",
    "build_extended",
    "error_dynamics_matrix",
    "check_observer_condition",
    "eso_step",
    "simulate_observation_error",
]


@dataclass
class ObserverGain:
    """Observer gains; the stacked gain is ``[L1; L2]``."""

    L1: np.ndarray
    L2: np.ndarray

    def __post_init__(self):
        self.L1 = as_matrix(self.L1, "L1")
        self.L2 = as_matrix(self.L2, "L2")
        p = self.L1.shape[0]
        if self.L1.shape != (p, p) or self.L2.shape != (p, p):
            raise ValueError("L1 and L2 must be square with matching size")

    @classmethod
    def diagonal(cls, p: int, l1: float, l2: float) -> "ObserverGain":
        return cls(L1=l1 * np.eye(p), L2=l2 * np.eye(p))

    @property
    def p(self) -> int:
        return self.L1.shape[0]

    @property
    def stacked(self) -> np.ndarray:
        return np.vstack([self.L1, self.L2])


@dataclass
class ObserverState:
    """Estimates of the tracking error and the aggregated disturbance."""

    e_hat: np.ndarray
    d_hat: np.ndarray

    def __post_init__(self):
        self.e_hat = np.asarray(self.e_hat, dtype=float).reshape(-1)
        self.d_hat = np.asarray(self.d_hat, dtype=float).reshape(-1)
        if self.e_hat.shape != self.d_hat.shape:
            raise ValueError("e_hat and d_hat must have the same length")
        if not (np.all(np.isfinite(self.e_hat)) and np.all(np.isfinite(self.d_hat))):
            raise ValueError("observer state must be finite")

    @classmethod
    def zero(cls, p: int) -> "ObserverState":
        return cls(e_hat=np.zeros(p), d_hat=np.zeros(p))

    @property
    def stacked(self) -> np.ndarray:
        return np.concatenate([self.e_hat, self.d_hat])


@dataclass
class ExtendedSystem:
    """Block matrices of the extended iteration-domain state space.

    ``Abar = [[I, I], [0, I]]``, ``Bbar_used = [P_used; 0]``,
    ``Cbar = [I, 0]`` and ``F = [0, I]``, where ``P_used`` is whatever
    input map the observer is allowed to know.
    """

    p: int
    P_used: np.ndarray
    Abar: np.ndarray
    Bbar_used: np.ndarray
    Cbar: np.ndarray
    F: np.ndarray


def build_extended(p: int, P_used) -> ExtendedSystem:
    """Assemble the extended state-space blocks around ``P_used``."""
    P_used = as_matrix(P_used, "P_used")
    if P_used.shape[0] != p:
        raise ValueError(f"P_used must have {p} rows, got {P_used.shape[0]}")
    I = np.eye(p)
    Z = np.zeros((p, p))
    Abar = np.block([[I, I], [Z, I]])
    Bbar = np.vstack([P_used, np.zeros((p, P_used.shape[1]))])
    Cbar = np.hstack([I, Z])
    F = np.hstack([Z, I])
    return ExtendedSystem(p=p, P_used=P_used, Abar=Abar, Bbar_used=Bbar, Cbar=Cbar, F=F)


def error_dynamics_matrix(gains: ObserverGain) -> np.ndarray:
    """Closed observer matrix ``Abar - [L1; L2] @ Cbar``."""
    p = gains.p
    I = np.eye(p)
    return np.block([[I - gains.L1, I], [-gains.L2, I]])


def check_observer_condition(es: ExtendedSystem, gains: ObserverGain) -> tuple[bool, float]:
    """Spectral radius of the closed observer matrix (``block_spectral_radius``
    with ``p x p`` blocks) and whether it is < 1."""
    if gains.p != es.p:
        raise ValueError("observer gain size does not match the extended system")
    rho, _ = block_spectral_radius(error_dynamics_matrix(gains), gains.p)
    return rho < 1.0, rho


def eso_step(
    es: ExtendedSystem,
    gains: ObserverGain,
    state: ObserverState,
    ubar_k,
    e_k,
) -> ObserverState:
    """One observer update driven by the input change and measured error.

    Implements ``X^ <- (Abar - L Cbar) X^ + Bbar_used @ ubar + L @ e``
    unrolled into the two estimate blocks.
    """
    p = es.p
    ubar_k = np.asarray(ubar_k, dtype=float).reshape(-1)
    e_k = np.asarray(e_k, dtype=float).reshape(-1)
    if e_k.shape != (p,):
        raise ValueError(f"error vector must have length {p}")
    if ubar_k.shape != (es.P_used.shape[1],):
        raise ValueError(f"input-change vector must have length {es.P_used.shape[1]}")
    if state.e_hat.shape != (p,):
        raise ValueError("observer state size does not match the extended system")
    e_hat = (
        state.e_hat
        - gains.L1 @ state.e_hat
        + state.d_hat
        + es.P_used @ ubar_k
        + gains.L1 @ e_k
    )
    d_hat = state.d_hat - gains.L2 @ state.e_hat + gains.L2 @ e_k
    return ObserverState(e_hat=e_hat, d_hat=d_hat)


def simulate_observation_error(
    es: ExtendedSystem,
    gains: ObserverGain,
    x_tilde_0,
    driving,
    horizon: int,
) -> np.ndarray:
    """Roll out the observation-error recursion for ``horizon`` steps.

    ``X~_{k+1} = (Abar - L Cbar) X~_k + driving_k``; ``driving`` is a
    sequence of extended-state-sized vectors (or None for no driving).
    Returns the ``(horizon + 1, 2p)`` trajectory including the initial
    error.
    """
    p = es.p
    x = np.asarray(x_tilde_0, dtype=float).reshape(-1)
    if x.shape != (2 * p,):
        raise ValueError(f"initial error must have length {2 * p}")
    if driving is None:
        driving = np.zeros((horizon, 2 * p))
    else:
        driving = np.asarray(driving, dtype=float)
        if driving.shape != (horizon, 2 * p):
            raise ValueError(f"driving must have shape ({horizon}, {2 * p})")
    A_cl = error_dynamics_matrix(gains)
    out = np.zeros((horizon + 1, 2 * p))
    out[0] = x
    for k in range(horizon):
        x = A_cl @ x + driving[k]
        out[k + 1] = x
    return out
