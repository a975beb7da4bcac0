"""Extended-state observers over the iteration axis.

The tracking error and the aggregated disturbance are stacked into one
extended state whose dynamics are fixed and block-structured; an observer
with gains ``(L1, L2)`` estimates both from the measured error alone.
The observers of the updating laws differ only in the input map they
inject: the true map (``eso_full_state``, loops ``eq04`` and ``eq17``),
the nominal model (``eso_mixed``, ``eq41``; ``eso_robust``, ``eq62``) or
a surrogate (``eso_model_free``, ``eq102``).  This module builds the
closed observer matrix ``Abar - [L1; L2] Cbar`` block by block, with
``Abar = [[I, I], [0, I]]`` and ``Cbar = [I, 0]``; ``stability`` lays it
into each design's loop, and its spectral radius is the catalog's
``eq17`` condition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matanalysis import as_matrix

__all__ = ["ObserverGain", "error_dynamics_matrix"]


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
