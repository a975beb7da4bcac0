"""The state spaces ``iterlearn`` lifts or lays out directly, step by step.

The tests' oracles for them: ``Abar``, ``Bbar``, ``Cbar`` and ``F`` of the
extended iteration-domain state space as the paper writes them, to be
multiplied out by hand and compared against the library's blocks; each
law's homogeneous step in that state (``law_map``); the observation-error
recursion (``simulate_observation_error``); and a time-domain rollout of
one iteration (``simulate_time_domain``), which ``lift_ilc`` must match.
"""

from dataclasses import dataclass

import numpy as np

from iterlearn.learner import LAW_DESIGNS, GainSet, _check_gains
from iterlearn.matanalysis import as_matrix
from iterlearn.observer import ObserverGain, error_dynamics_matrix
from iterlearn.plant import LiftedIlcSystem


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


def law_map(mode: str, P, gains: GainSet, P_used=None) -> np.ndarray:
    """The homogeneous step ``X_{k+1} = A X_k`` of a law's loop on the map
    ``P`` with its observer on ``P_used`` (default ``P``), in the error
    coordinates ``X = [E; e_hat; d_hat]`` (``[E]`` for ``p_type``): ``Du =
    Ke E + Kh e_hat + Hd d_hat`` with ``(Ke, Kh, Hd)`` ``(K, 0, 0)``, ``(0,
    K, H)`` (``eso_full_state``), ``(K, 0, H)`` (``eso_mixed``) or ``(K, 0,
    K Hbar)`` (aggregated laws), then ``E' = E - P Du``, ``e_hat' = L1 E +
    (I - L1) e_hat + d_hat - P_used Du`` and ``d_hat' = L2 E - L2 e_hat +
    d_hat``."""
    _check_gains(mode, gains)
    P, K = as_matrix(P, "P"), gains.K
    if mode == "p_type":
        return np.eye(len(P)) - P @ K
    p, zero, og = len(P), np.zeros_like(K), gains.observer
    Hd = gains.H if LAW_DESIGNS[mode] == "compensated" else K @ gains.Hbar
    G = np.hstack([zero, K, Hd] if mode == "eso_full_state" else [K, zero, Hd])  # Du = G X
    A = np.block([[np.eye(p), np.zeros((p, 2 * p))], [og.stacked, error_dynamics_matrix(og)]])
    A[:p] -= P @ G
    A[p : 2 * p] -= (P if P_used is None else as_matrix(P_used, "P_used")) @ G
    return A


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
