"""Lumped hydraulic circuits: state equations, energy weights, integrator.

A circuit is d(y)/dt = A(y, t) y + s(y, t) + b, where b carries the
flow-rate sources from the attached flow domains (Q_k / C_k at the entry of
the corresponding node pressure, zero elsewhere).  The diagonal weight
tensor U makes every row of the system an energy rate: a capacitance for a
pressure state, an inductance for a flow-rate state, their inverses for
volumes and momentum fluxes.  The dissipation tensor is

    B = -U A - (1/2) dU/dt,

positive definite B meaning the interior circuit only dissipates.

The `step2_*` routines advance the interior dynamics (A y + s, without b)
by subcycled implicit Euler with the nonlinear coefficients frozen at each
substep's start state, which is the second half of the splitting scheme.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .params import Example1Params, Example2Params, Example3Params


@dataclass(frozen=True)
class Connection:
    """One resistive flow-circuit connection, grounded through a capacitor."""
    resistance: float
    capacitance: float
    pi_index: int             # position of the node pressure within y
    interface_id: tuple       # (l, m, k)

    def __post_init__(self):
        if self.resistance <= 0 or self.capacitance <= 0:
            raise ValueError("connection R and C must be positive")


@dataclass(frozen=True)
class CircuitSpec:
    dim: int
    A: Callable                 # (y, t) -> (dim, dim)
    U: Callable                 # (y, t) -> (dim,) positive diagonal entries
    s: Callable                 # (y, t) -> (dim,)
    connections: tuple
    dU_dt: Optional[Callable] = None   # (y, t) -> (dim,), analytic, optional

    def __post_init__(self):
        idx = [c.pi_index for c in self.connections]
        if len(idx) != len(set(idx)):
            raise ValueError("pi indices must be unique within a circuit")
        if idx and (min(idx) < 0 or max(idx) >= self.dim):
            raise ValueError("pi index outside state vector")

    def interior_rhs(self, y, t):
        return self.A(y, t) @ y + self.s(y, t)


@dataclass
class CircuitState:
    y: np.ndarray
    t: float


def eval_B(spec: CircuitSpec, y, t, dt_fd: float | None = None) -> np.ndarray:
    """Dissipation tensor B = -U A - (1/2) dU/dt at the given state.

    The dU/dt term uses the analytic evaluator when the spec provides one,
    a central difference along the interior dynamics when `dt_fd` is given,
    and is dropped (exactly zero) otherwise, i.e. for constant U.
    """
    y = np.asarray(y, dtype=float)
    B = -np.diag(spec.U(y, t)) @ spec.A(y, t)
    if spec.dU_dt is not None:
        B -= 0.5 * np.diag(spec.dU_dt(y, t))
    elif dt_fd is not None:
        if dt_fd <= 0:
            raise ValueError("dt_fd must be positive")
        f = spec.interior_rhs(y, t)
        up = spec.U(y + dt_fd * f, t + dt_fd)
        dn = spec.U(y - dt_fd * f, t - dt_fd)
        B -= 0.5 * np.diag((up - dn) / (2.0 * dt_fd))
    return B


def energy(spec: CircuitSpec, y, t) -> float:
    """(1/2) ||U^{1/2} y||^2, the stored circuit energy."""
    y = np.asarray(y, dtype=float)
    return 0.5 * float(y @ (spec.U(y, t) * y))


def step2_integrate(spec: CircuitSpec, state: CircuitState, dt2: float,
                    n_sub: int) -> CircuitState:
    """Advance the interior dynamics by n_sub implicit-Euler substeps.

    Each substep solves (I - dt2 A(y, t_new)) y_new = y + dt2 s(y, t_new)
    with t_new the substep end time; nonlinear coefficients are frozen at
    the substep's start state y.
    """
    if dt2 <= 0:
        raise ValueError("dt2 must be positive")
    if n_sub < 1:
        raise ValueError("n_sub must be >= 1")
    y = np.array(state.y, dtype=float)
    t = state.t
    eye = np.eye(spec.dim)
    for j in range(1, n_sub + 1):
        t_new = state.t + j * dt2
        A = spec.A(y, t_new)
        rhs = y + dt2 * spec.s(y, t_new)
        mat = eye - dt2 * A
        try:
            y = np.linalg.solve(mat, rhs)
        except np.linalg.LinAlgError as err:
            raise RuntimeError(f"singular circuit step at t={t_new}: {err}") from err
        t = t_new
    return CircuitState(y, t)


# nonlinear element laws of the first benchmark circuit

def resistance_a(pi: float, p: Example1Params) -> float:
    return p.Rbar_a + p.alpha0 / (1.0 + p.alpha1 * np.exp(-p.alpha2 * pi))


def resistance_a_prime(pi: float, p: Example1Params) -> float:
    e = p.alpha1 * np.exp(-p.alpha2 * pi)
    return p.alpha0 * p.alpha2 * e / (1.0 + e) ** 2


def capacitance_a(omega_state: float, p: Example1Params) -> float:
    return p.Cbar_a / (1.0 + p.gamma1 * omega_state)


def _zero_signal(t):
    return 0.0


def example1_circuit(p: Example1Params, nonlinear: bool,
                     p_tilde: Callable | None = None) -> CircuitSpec:
    """Single connection; state y = [pi_11_1, omega_11] (pressure, volume)."""
    p.check_circuit_elements()
    pt = p_tilde if p_tilde is not None else _zero_signal

    def ra_ca(y):
        if nonlinear:
            return resistance_a(y[0], p), capacitance_a(y[1], p)
        return p.Rbar_a, p.Cbar_a

    def A(y, t):
        Ra, Ca = ra_ca(y)
        return np.array([
            [-1.0 / (Ra * p.C11_1), 1.0 / (Ra * p.C11_1 * Ca)],
            [1.0 / Ra, -1.0 / (Ra * Ca) - 1.0 / (p.R_b * Ca)],
        ])

    def U(y, t):
        _, Ca = ra_ca(y)
        return np.array([p.C11_1, 1.0 / Ca])

    def s(y, t):
        return np.array([0.0, pt(t) / p.R_b])

    dU_dt = None
    if not nonlinear:
        dU_dt = lambda y, t: np.zeros(2)

    conns = (Connection(p.R11_1, p.C11_1, pi_index=0, interface_id=(1, 1, 1)),)
    return CircuitSpec(2, A, U, s, conns, dU_dt)


def example2_circuit(p: Example2Params, p_tilde: Callable | None = None) -> CircuitSpec:
    """Two connections through one circuit with an inductive branch;
    y = [pi_11_1, pi_21_1, omega_11] (two pressures and a flow rate)."""
    p.check_circuit_elements()
    pt = p_tilde if p_tilde is not None else _zero_signal

    Amat = np.array([
        [0.0, 0.0, -1.0 / p.C11_1],
        [0.0, -1.0 / (p.C21_1 * p.R_b), 1.0 / p.C21_1],
        [1.0 / p.L_a, -1.0 / p.L_a, -p.R_a / p.L_a],
    ])
    Udiag = np.array([p.C11_1, p.C21_1, p.L_a])

    conns = (
        Connection(p.R11_1, p.C11_1, pi_index=0, interface_id=(1, 1, 1)),
        Connection(p.R21_1, p.C21_1, pi_index=1, interface_id=(2, 1, 1)),
    )
    return CircuitSpec(
        3,
        A=lambda y, t: Amat,
        U=lambda y, t: Udiag,
        s=lambda y, t: np.array([0.0, pt(t) / (p.C21_1 * p.R_b), 0.0]),
        connections=conns,
        dU_dt=lambda y, t: np.zeros(3),
    )


def example3_circuit(p: Example3Params, p_tilde_a: Callable | None = None,
                     p_tilde_b: Callable | None = None) -> CircuitSpec:
    """Closed circuit, both connections on one domain;
    y = [pi_11_1, pi_11_2, omega_11]."""
    p.check_circuit_elements()
    pa = p_tilde_a if p_tilde_a is not None else _zero_signal
    pb = p_tilde_b if p_tilde_b is not None else _zero_signal

    Amat = np.array([
        [-1.0 / (p.R_a * p.C11_1), 0.0, -1.0 / p.C11_1],
        [0.0, -1.0 / (p.R_b * p.C11_2), 1.0 / p.C11_2],
        [1.0 / p.L_c, -1.0 / p.L_c, -p.R_c / p.L_c],
    ])
    Udiag = np.array([p.C11_1, p.C11_2, p.L_c])

    conns = (
        Connection(p.R11_1, p.C11_1, pi_index=0, interface_id=(1, 1, 1)),
        Connection(p.R11_2, p.C11_2, pi_index=1, interface_id=(1, 1, 2)),
    )
    return CircuitSpec(
        3,
        A=lambda y, t: Amat,
        U=lambda y, t: Udiag,
        s=lambda y, t: np.array([pa(t) / (p.R_a * p.C11_1), pb(t) / (p.R_b * p.C11_2), 0.0]),
        connections=conns,
        dU_dt=lambda y, t: np.zeros(3),
    )
