"""Extended-state observers over the iteration axis.

The tracking error and the aggregated disturbance are stacked into one
extended state whose dynamics are fixed and block-structured; an observer
with gains ``(L1, L2)`` estimates both from the measured error alone.
The observers of the updating laws differ only in the input map they
inject: the true map (``eso_full_state``, loops ``eq04`` and ``eq17``),
the nominal model (``eso_mixed``, ``eq41``; ``eso_robust``, ``eq62``) or
a surrogate (``eso_model_free``, ``eq102``).  This module builds the
closed observer matrix ``Abar - [L1; L2] Cbar`` block by block, with
``Abar = [[I, I], [0, I]]`` and ``Cbar = [I, 0]``; ``learner.law_map``
builds a law's step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matanalysis import as_matrix, block_spectral_radius

__all__ = [
    "ObserverGain",
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


def error_dynamics_matrix(gains: ObserverGain) -> np.ndarray:
    """Closed observer matrix ``Abar - [L1; L2] @ Cbar``."""
    p = gains.p
    I = np.eye(p)
    return np.block([[I - gains.L1, I], [-gains.L2, I]])


def check_observer_condition(gains: ObserverGain) -> tuple[bool, float]:
    """Spectral radius of the closed observer matrix (``block_spectral_radius``
    with ``p x p`` blocks) and whether it is < 1."""
    rho, _ = block_spectral_radius(error_dynamics_matrix(gains), gains.p)
    return rho < 1.0, rho


def simulate_observation_error(
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
    p = gains.p
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
