"""Extended-state observer tracking a drifting disturbance.

The observer estimates the tracking error and the disturbance from the
measured error alone.  Its estimation error obeys an undriven contraction
whenever the disturbance's second difference vanishes, so a linearly
drifting disturbance (which never converges!) is still estimated exactly
in the limit.
"""

import numpy as np

from iterlearn import (
    ObserverGain,
    UncertaintyModel,
    build_extended,
    check_observer_condition,
    simulate_observation_error,
    uncertainty_sequence,
)

p = 2
es = build_extended(p, np.eye(p))
gains = ObserverGain.diagonal(p, 0.9, 0.1)

holds, rho = check_observer_condition(es, gains)
print(f"observer loop spectral radius: {rho:.4f} (contraction: {holds})")

# a ramp disturbance: unbounded drift, but zero second difference
model = UncertaintyModel.ramp([0.5, -0.25])
K = 200
d2 = np.diff(uncertainty_sequence(model, K + 2), n=2, axis=0)
driving = -d2 @ es.F
print(f"max |driving| from the ramp: {np.abs(driving).max():.1e} (exactly zero)")

x0 = np.array([2.0, -1.0, 0.5, 1.5])
traj = simulate_observation_error(es, gains, x0, driving, K)
norms = np.abs(traj).max(axis=1)
for k in (0, 10, 40, 80, 160):
    print(f"  k={k:4d}  |estimation error| = {norms[k]:.3e}")
print(f"observer rate ~ rho: {(norms[80] / norms[30]) ** (1 / 50):.4f}")
