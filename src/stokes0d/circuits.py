"""Lumped hydraulic circuits: state equations, energy weights, integrator.

A circuit is d(y)/dt = A(y, t) y + s(t) + b, where b carries the
flow-rate sources from the attached flow domains (Q_k / C_k at the entry of
the corresponding node pressure, zero elsewhere).  The diagonal weight
tensor U makes every row of the system an energy rate: a capacitance for a
pressure state, an inductance for a flow-rate state, their inverses for
volumes and momentum fluxes.  The dissipation tensor is

    B = -U A - (1/2) dU/dt,

positive definite B meaning the interior circuit only dissipates.

`step2_integrate` advances the interior dynamics (A y + s, without b) by
subcycled implicit Euler with the nonlinear coefficients frozen at each
substep's start state, which is the second half of the splitting scheme.
It is handed the sources s of its substeps: the splitting evaluates s once
for a whole block of steps.  A circuit with a constant A carries it as an
array, and stage 2 factors I - dt2 A once per substep size for the whole
run; an A that depends on the state or the time is a callable, factored
at every substep.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs
from scipy.special import expit

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


@dataclass(frozen=True, eq=False)
class CircuitSpec:
    dim: int
    A: Union[np.ndarray, Callable]  # (dim, dim) array, kept read-only, or
                                    # (y, t) -> (dim, dim) array
    U: Callable                 # (y, t) -> (dim,) positive diagonal entries
    s: Callable                 # t -> shape(t) + (dim,): generator sources,
                                # one row per time of an array t, each equal
                                # bitwise to s of that time alone
    connections: tuple
    # dt2 -> dgetrf factors of I - dt2 A, for an array A
    _factors: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if not callable(self.A):
            A = np.array(self.A, dtype=float)
            if A.shape != (self.dim, self.dim):
                raise ValueError(f"A has shape {A.shape}, expected {(self.dim, self.dim)}")
            A.setflags(write=False)
            object.__setattr__(self, "A", A)
        idx = [c.pi_index for c in self.connections]
        if len(idx) != len(set(idx)):
            raise ValueError("pi indices must be unique within a circuit")
        if idx and (min(idx) < 0 or max(idx) >= self.dim):
            raise ValueError("pi index outside state vector")

    def matrix(self, y, t) -> np.ndarray:
        """A at the given state and time."""
        return self.A(y, t) if callable(self.A) else self.A


# The central-difference step of B's -(1/2) dU/dt term, 1e-6 of the period
# 2; U is constant or affine in y here, so any step is exact up to round-off.
DU_DT_STEP = 2e-6


def eval_B(spec: CircuitSpec, y, t) -> np.ndarray:
    """Dissipation tensor B = -U A - (1/2) dU/dt at the given state, the
    dU/dt term a central difference of step DU_DT_STEP along the interior
    dynamics (exactly zero for a constant U)."""
    h = DU_DT_STEP
    y = np.asarray(y, dtype=float)
    A = spec.matrix(y, t)
    f = A @ y + spec.s(t)
    up = spec.U(y + h * f, t + h)
    dn = spec.U(y - h * f, t - h)
    return -np.diag(spec.U(y, t)) @ A - 0.5 * np.diag((up - dn) / (2.0 * h))


def weights(spec: CircuitSpec, y, t) -> np.ndarray:
    """U(y, t), the weights of the circuit energy.  Raises where an entry is
    not positive, since the energy is then no norm (a NaN entry passes)."""
    u = spec.U(y, t)
    if (u <= 0).any():
        k = int(np.argmax(u <= 0))
        raise ValueError(f"U[{k}] = {u[k]:.3g} is not positive at t={t:.6g}: "
                         "the circuit energy is no longer a norm")
    return u


def energy(spec: CircuitSpec, y, t) -> float:
    """(1/2) ||U^{1/2} y||^2, the stored circuit energy."""
    y = np.asarray(y, dtype=float)
    return 0.5 * float(y @ (weights(spec, y, t) * y))


def _factor(matrix: np.ndarray, t: float):
    """dgetrf factors (lu, piv) of the matrix I - dt2 A of a substep ending
    at t."""
    lu, piv, info = dgetrf(matrix)
    if info != 0:
        raise RuntimeError(f"singular circuit step at t={t}: "
                           f"LAPACK dgetrf info={info}")
    return lu, piv


def step2_integrate(spec: CircuitSpec, y, t: float, n_sub: int,
                    dt2: float, sources) -> np.ndarray:
    """Advance the interior dynamics from y at time t by n_sub implicit-Euler
    substeps of size dt2 and return the new state; y itself is not changed.

    Each substep solves (I - dt2 A(y, t_new)) y_new = y + dt2 s(t_new)
    with t_new the substep end time; nonlinear coefficients are frozen at
    the substep's start state y.  `sources` holds s(t_new) of every
    substep, shape (n_sub, dim): the caller evaluates s, for many steps at
    once.  An array A is factored once per dt2 and circuit, a callable A at
    every substep.
    """
    if dt2 <= 0:
        raise ValueError("dt2 must be positive")
    if n_sub < 1:
        raise ValueError("n_sub must be >= 1")
    if np.shape(sources) != (n_sub, spec.dim):
        raise ValueError(f"sources of {n_sub} substeps have shape "
                         f"{np.shape(sources)}, expected {(n_sub, spec.dim)}")
    y = np.asarray(y, dtype=float)
    increments = dt2 * sources
    if not callable(spec.A):
        if dt2 not in spec._factors:
            spec._factors[dt2] = _factor(np.eye(spec.dim) - dt2 * spec.A, t + dt2)
        lu, piv = spec._factors[dt2]
        for increment in increments:
            y, _ = dgetrs(lu, piv, y + increment)
        return y
    eye = np.eye(spec.dim)
    times = t + np.arange(1, n_sub + 1) * dt2
    for t_new, increment in zip(times.tolist(), increments):
        lu, piv = _factor(eye - dt2 * spec.A(y, t_new), t_new)
        y, _ = dgetrs(lu, piv, y + increment)
    return y


# nonlinear element laws of the first benchmark circuit

def resistance_a(pi: float, p: Example1Params) -> float:
    """R_a(pi) = Rbar_a + alpha0 / (1 + alpha1 exp(-alpha2 pi)), written with
    the logistic expit, which neither overflows nor warns."""
    return p.Rbar_a + p.alpha0 * expit(p.alpha2 * pi - math.log(p.alpha1))


def resistance_a_prime(pi: float, p: Example1Params) -> float:
    z = p.alpha2 * pi - math.log(p.alpha1)
    return p.alpha0 * p.alpha2 * expit(z) * expit(-z)


def capacitance_a(omega_state: float, p: Example1Params) -> float:
    return p.Cbar_a / (1.0 + p.gamma1 * omega_state)


def _zero_signal(t):
    return 0.0


def _sources(t, dim, *entries):
    """Generator sources at time(s) t, shape np.shape(t) + (dim,): zero but
    for the given (state index, value) entries."""
    out = np.zeros(np.shape(t) + (dim,))
    for index, value in entries:
        out[..., index] = value
    return out


def example1_circuit(p: Example1Params, nonlinear: bool,
                     p_tilde: Callable | None = None) -> CircuitSpec:
    """Single connection; state y = [pi_11_1, omega_11] (pressure, volume)."""
    p.check_circuit_elements()
    pt = p_tilde if p_tilde is not None else _zero_signal

    def matrix(Ra, Ca):
        return np.array([
            [-1.0 / (Ra * p.C11_1), 1.0 / (Ra * p.C11_1 * Ca)],
            [1.0 / Ra, -1.0 / (Ra * Ca) - 1.0 / (p.R_b * Ca)],
        ])

    if nonlinear:
        def A(y, t):
            return matrix(resistance_a(y[0], p), capacitance_a(y[1], p))
    else:
        A = matrix(p.Rbar_a, p.Cbar_a)

    def U(y, t):
        Ca = capacitance_a(y[1], p) if nonlinear else p.Cbar_a
        return np.array([p.C11_1, 1.0 / Ca])

    def s(t):
        return _sources(t, 2, (1, pt(t) / p.R_b))

    conns = (Connection(p.R11_1, p.C11_1, pi_index=0, interface_id=(1, 1, 1)),)
    return CircuitSpec(2, A, U, s, conns)


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
        A=Amat,
        U=lambda y, t: Udiag,
        s=lambda t: _sources(t, 3, (1, pt(t) / (p.C21_1 * p.R_b))),
        connections=conns,
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
        A=Amat,
        U=lambda y, t: Udiag,
        s=lambda t: _sources(t, 3, (0, pa(t) / (p.R_a * p.C11_1)),
                             (1, pb(t) / (p.R_b * p.C11_2))),
        connections=conns,
    )
