"""Discrete energy bookkeeping and error norms.

The energy functionals mirror the balance law of the coupled problem:
kinetic energy of the flow regions, stored circuit energy (1/2)||U^{1/2}y||^2,
viscous dissipation, the resistive interface dissipation sum of R Q^2 and
the circuit dissipation y^T B y.  The stage-1 audit
recomputes both sides of the discrete balance identity that the splitting
scheme satisfies step by step; its residual should sit at solver precision.
The kinetic energies read the mass products M v that each state carries,
the resistive terms its connection flows Q_k.

The observers of many states, the error norms here and the period
tracker of the harness, take their quadratic forms d.(M d) a chunk of
consecutive states at a time: one sparse product of the mass matrix with
the chunk's stacked vectors (`quadratic_forms`) in place of one product
per vector, with the same bits.  A chunk holds at most CHUNK_BYTES of
stacked vectors (`chunk_length`).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .circuits import energy, eval_B, weights
from .fem import TimeSeparable, interpolate_pressure, interpolate_velocity
from .sparse import apply_in_range


# The largest stack of vectors that one chunk's sparse product takes: 29
# states at 25x5, one state, and so no stack, at 100x20.
CHUNK_BYTES = 256 * 1024


def chunk_length(system, limit: int) -> int:
    """States per chunk: as many of the system's longest field vectors as
    fit in CHUNK_BYTES, at least 1 and at most `limit`."""
    longest = max(max(dom.space.n_velocity, dom.space.n_pressure)
                  for dom in system.domains)
    return max(1, min(limit, CHUNK_BYTES // (8 * longest)))


def quadratic_forms(M, vectors) -> list:
    """d.(M d) of each of a sequence of contiguous vectors d, as floats;
    the rows of a C-contiguous 2-D array are taken without a copy.

    Several vectors take one product with M of their stack (scipy's
    csr_matvecs), whose every column is csr_matvec of that vector bit for
    bit: the same products summed in the same order.  Each dot product runs
    on contiguous rows, so each form has the bits of float(d @ (M @ d)).
    """
    if len(vectors) == 1:
        (d,) = vectors
        return [float(d @ (M @ d))]
    products = (M @ np.asarray(vectors).T).T.copy()
    return [float(d @ md) for d, md in zip(vectors, products)]


@dataclass(frozen=True)
class EnergyReport:
    e_omega: float     # kinetic energy of the flow regions
    e_ups: float       # stored circuit energy
    d_omega: float     # viscous dissipation rate
    d_rc: float        # resistive interface dissipation rate
    u_ups: float       # circuit element dissipation rate y^T B y

    @property
    def total(self) -> float:
        return self.e_omega + self.e_ups


def kinetic_energy(system, state) -> float:
    """(1/2) sum of rho (v, M v) over the flow regions."""
    e = 0.0
    for dom, v, mv in zip(system.domains, state.velocities, state.mass_products):
        e += 0.5 * dom.rho * float(v @ mv)
    return e


def energy_report(system, state, dt_fd: float) -> EnergyReport:
    """The energy terms of one state; `dt_fd` is the time step of the
    central difference that gives u_ups its -1/2 dU/dt term."""
    e_om = kinetic_energy(system, state)
    d_om = 0.0
    for dom, v in zip(system.domains, state.velocities):
        d_om += dom.mu * float(v @ apply_in_range(dom.ops.K.dot, v))
    spec, y = system.circuit, state.y
    e_up = energy(spec, y, state.t)
    u_up = float(y @ (eval_B(spec, y, state.t, dt_fd) @ y))
    d_rc = sum((system.resistances * state.flows ** 2).tolist())
    return EnergyReport(e_om, e_up, d_om, d_rc, u_up)


def step1_energy_residual(system, previous, intermediate, dt: float):
    """Both sides of the stage-1 discrete energy identity and their gap.

    With v* and y* the intermediate solution, the scheme satisfies exactly

      (1/dt)(rho ||v*||^2 + ||U^{1/2} y*||^2) + mu ||grad v*||^2 + sum R Q*^2
        = (1/dt)(rho (v^n, v*) + (y^n)^T U y* ) + forcing power,

    the unhalved-norm form that the stability proof chains through Young's
    inequality.  Returns (lhs, rhs, relative residual).
    """
    t_new = previous.t + dt
    lhs = rhs = 0.0
    for dom, vn, vs, mvs in zip(system.domains, previous.velocities,
                                intermediate.velocities, intermediate.mass_products):
        lhs += (dom.rho / dt) * float(vs @ mvs) + dom.mu * float(
            vs @ apply_in_range(dom.ops.K.dot, vs))
        rhs += (dom.rho / dt) * float(vn @ mvs)
        if dom.body_load is not None:
            rhs += float(dom.body_load(t_new) @ vs)
    y_n, y_star = previous.y, intermediate.y
    U = weights(system.circuit, y_star, t_new)
    lhs += float(y_star @ (U * y_star)) / dt
    rhs += float(y_n @ (U * y_star)) / dt
    # the resistive terms added in circuit order, one at a time
    lhs = sum((system.resistances * intermediate.flows ** 2).tolist(), lhs)
    rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    return lhs, rhs, rel


@dataclass(frozen=True)
class ErrorReport:
    err_v: float
    err_p: float
    err_y: float


def error_norms(system, states, exact, dt: float) -> ErrorReport:
    """Normalized space-time errors of the states of one recorded period
    against the exact solution, each state weighted by dt:

      Err = sqrt( dt * sum_n sum_l ||u^n - u_ex(t^n)||^2 / ||u_ex(t^n)||^2 )

    with L2 norms for the fields (exact fields taken as their nodal
    interpolants) and the U^{1/2}-weighted Euclidean norm for the circuit
    state, U evaluated at the respective state.  The forms are taken a
    chunk of states at a time and the ratios summed state by state, domain
    by domain within a state.
    """
    times = np.array([state.t for state in states])
    # each profile interpolated once and each coefficient evaluated once on
    # all the times: the same values as interpolating time by time
    fields = [[(f, f.coefficients(times)) for f in (
                  TimeSeparable(dex.velocity, partial(interpolate_velocity, dom.space)),
                  TimeSeparable(dex.pressure, partial(interpolate_pressure, dom.space)))]
              for dom, dex in zip(system.domains, exact.domains)]
    spec = system.circuit
    sum_v = sum_p = sum_y = 0.0
    size = chunk_length(system, len(states))
    for first in range(0, len(states), size):
        chunk = states[first:first + size]
        forms = []      # per domain, the four forms of each state of the chunk
        for l, dom in enumerate(system.domains):
            # one row per time: a column of coefficients times each profile
            uex, pex = (f.vector(c[first:first + size].T[:, :, None])
                        for f, c in fields[l])
            du, dp = np.empty_like(uex), np.empty_like(pex)
            for n, state in enumerate(chunk):
                np.subtract(state.velocities[l], uex[n], out=du[n])
                np.subtract(state.pressures[l], pex[n], out=dp[n])
            forms.append((quadratic_forms(dom.ops.M, du), quadratic_forms(dom.ops.M, uex),
                          quadratic_forms(dom.ops.Mp, dp), quadratic_forms(dom.ops.Mp, pex)))
        for n, state in enumerate(chunk):
            t = state.t
            for num_v, den_v, num_p, den_p in forms:
                if den_v[n] <= 0.0 or den_p[n] <= 0.0:
                    raise ZeroDivisionError(f"exact field norm vanishes at t={t}")
                sum_v += num_v[n] / den_v[n]
                sum_p += num_p[n] / den_p[n]
            yex = exact.y(t)
            Uex = np.sqrt(spec.U(yex, t))
            Uh = np.sqrt(spec.U(state.y, t))
            dy = Uh * state.y - Uex * yex
            den_y = float((Uex * yex) @ (Uex * yex))
            if den_y <= 0.0:
                raise ZeroDivisionError(f"exact state norm vanishes at t={t}")
            sum_y += float(dy @ dy) / den_y
    return ErrorReport(np.sqrt(dt * sum_v), np.sqrt(dt * sum_p), np.sqrt(dt * sum_y))


def convergence_rate(errors) -> float:
    """Least-squares slope of log(err) against log(dt)."""
    pts = [(float(dt), float(e)) for dt, e in errors]
    if len({dt for dt, _ in pts}) < 2:
        raise ValueError("need at least two distinct dt values")
    if any(e <= 0.0 for _, e in pts):
        raise ValueError("errors must be positive for a log-log fit")
    x = np.log([dt for dt, _ in pts])
    y = np.log([e for _, e in pts])
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)
