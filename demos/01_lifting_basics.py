"""Lifting a finite-horizon system into a single data map.

A repeated task over T time steps collapses into one linear map per
iteration: stacked output = P @ stacked input + disturbance terms.  This
demo builds a third-order system, lifts it, and confirms that the lifted
algebra reproduces a time-domain rollout exactly.
"""

import numpy as np

from iterlearn import LiftedIlcSystem, lift_ilc
from iterlearn.matanalysis import save_matrix
from pathlib import Path

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

sys = LiftedIlcSystem(
    A=[[0.72, 0.0, 0.0], [1.0, -1.04, -0.81], [0.0, 0.81, 0.0]],
    B=[[1.0], [0.0], [0.0]],
    C=[[1.0, -0.98, -1.09]],
    horizon=20,
)

P, Q, S = lift_ilc(sys)
print(f"lifted maps: P {P.shape}, Q {Q.shape}, S {S.shape}")
print(f"first Markov parameters (first column of P): {P[:4, 0]}")

# the lifted map is block lower-triangular Toeplitz
assert np.allclose(np.triu(P, 1), 0.0)

rng = np.random.default_rng(0)
u = rng.standard_normal(20)
w = 0.1 * rng.standard_normal(60)
v = 0.05 * rng.standard_normal(20)
x0 = rng.standard_normal(3)

# roll one iteration through x(t+1) = A x(t) + B u(t) + w(t), y(t+1) = C x(t+1) + v(t+1)
x, y_rolled = x0, np.zeros(20)
for t in range(20):
    x = sys.A @ x + sys.B @ u[t : t + 1] + w[3 * t : 3 * t + 3]
    y_rolled[t : t + 1] = sys.C @ x + v[t : t + 1]
y_lifted = P @ u + Q @ w + v + S @ x0
print(f"rollout vs lifted algebra, max gap: {np.abs(y_rolled - y_lifted).max():.3e}")

save_matrix(OUT / "P.txt", P)
save_matrix(OUT / "Q.txt", Q)
save_matrix(OUT / "S.txt", S)
print(f"matrices written to {OUT}/")
