"""Extended-state observers over the iteration axis.

The tracking error and the aggregated disturbance are stacked into one
extended state whose dynamics are fixed and block-structured; an observer
with gains ``(L1, L2)`` estimates both from the measured error alone.
The four observer variants of the updating laws differ only in the input
map they inject (the true map, a nominal model, or a surrogate): this
module builds the blocks, the closed observer matrix and its condition,
and ``learner.run_batch`` steps the recursion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matanalysis import as_matrix, block_spectral_radius

__all__ = [
    "ObserverGain",
    "ExtendedSystem",
    "build_extended",
    "error_dynamics_matrix",
    "check_observer_condition",
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
