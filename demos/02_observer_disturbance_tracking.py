"""Extended-state observer tracking a drifting disturbance.

The observer estimates the tracking error and the disturbance from the
measured error alone.  Its estimation error obeys an undriven contraction
whenever the disturbance's second difference vanishes, so a linearly
drifting disturbance (which never converges!) is still estimated exactly
in the limit.
"""

from dataclasses import dataclass

import numpy as np

from iterlearn import ObserverGain, UncertaintyModel, block_spectral_radius, uncertainty_sequence
from iterlearn.matanalysis import as_matrix
from iterlearn.observer import error_dynamics_matrix


@dataclass
class ExtendedSystem:
    """Block matrices of the extended iteration-domain state space.

    ``Abar = [[I, I], [0, I]]``, ``Bbar_used = [P_used; 0]``,
    ``Cbar = [I, 0]`` and ``F = [0, I]``, where ``P_used`` is whatever
    input map the observer is allowed to know.
    """

    p: int
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
    return ExtendedSystem(p=p, Abar=Abar, Bbar_used=Bbar, Cbar=Cbar, F=F)


p = 2
es = build_extended(p, np.eye(p))
gains = ObserverGain.diagonal(p, 0.9, 0.1)
A_cl = error_dynamics_matrix(gains)
same = np.array_equal(A_cl, es.Abar - gains.stacked @ es.Cbar)
print(f"closed observer matrix is Abar - [L1; L2] Cbar: {same}")

rho, _ = block_spectral_radius(A_cl, p)
print(f"observer loop spectral radius: {rho:.4f} (contraction: {rho < 1})")

# a ramp disturbance: unbounded drift, but zero second difference
model = UncertaintyModel.ramp([0.5, -0.25])
K = 200
d2 = np.diff(uncertainty_sequence(model, K + 2), n=2, axis=0)
driving = -d2 @ es.F
print(f"max |driving| from the ramp: {np.abs(driving).max():.1e} (exactly zero)")

# the estimation error X~_{k+1} = (Abar - L Cbar) X~_k + driving_k
traj = [np.array([2.0, -1.0, 0.5, 1.5])]
for k in range(K):
    traj.append(A_cl @ traj[-1] + driving[k])
norms = np.abs(np.array(traj)).max(axis=1)
for k in (0, 10, 40, 80, 160):
    print(f"  k={k:4d}  |estimation error| = {norms[k]:.3e}")
print(f"observer rate ~ rho: {(norms[80] / norms[30]) ** (1 / 50):.4f}")
