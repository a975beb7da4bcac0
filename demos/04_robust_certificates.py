"""Certifying robustness against structured model error.

The model error is delta = phi1 @ sigma @ phi2 with an unknown
contraction sigma.  A positive-definite certificate verifying the block
inequality proves the closed-loop spectral condition for every admissible
sigma at once; this demo finds one and then stress-tests the implication
by sampling errors.
"""

import numpy as np

from iterlearn import (
    GainSet,
    ObserverGain,
    StructuredUncertainty,
    TransferPlant,
    check_condition,
    lmi_search,
    sample_structured_delta,
    synth_H_pseudo,
    theorem_implication_check,
)

rng = np.random.default_rng(14)
p, m = 2, 3
P0 = np.linalg.qr(rng.standard_normal((p, p)))[0] @ np.hstack(
    [np.diag([1.2, 0.9]), np.zeros((p, 1))]
)
K = 0.5 * synth_H_pseudo(P0)
gains = GainSet(K=K, H=synth_H_pseudo(P0), observer=ObserverGain.diagonal(p, 0.9, 0.1))

phi1 = rng.standard_normal((p, p))
phi2 = rng.standard_normal((p, m))
phi1 *= 0.06 / np.linalg.norm(phi1, 2)
phi2 /= np.linalg.norm(phi2, 2)
structure = StructuredUncertainty(phi1=phi1, phi2=phi2)

cert = lmi_search("eq44", P0, structure, gains)
if cert is None:
    print("no certificate found (structure too large for the margins)")
else:
    print(f"certificate found: tau = {cert.tau:.4g}, "
          f"min eig Q = {np.linalg.eigvalsh(cert.assembled()).min():.4g}")
    ok = theorem_implication_check("eq44", structure, gains, P0, cert, 500, seed=3)
    print(f"500 sampled admissible errors all keep the loop contractive: {ok}")

    worst = 0.0
    for s in range(200):
        delta = sample_structured_delta(structure, s)
        plant = TransferPlant(nominal=P0, delta=delta)
        worst = max(worst, check_condition("eq41", plant, gains).rho)
    print(f"worst sampled closed-loop spectral radius: {worst:.4f} (< 1)")
