"""Closed-form solutions of the three benchmark problems.

Each benchmark admits a manufactured solution built from a periodic drive
s(t) = s0 + s1 sin(omega t), a flat channel profile V0 cos^2(pi x2 / H) and
an exponential pressure profile a0 + a1 exp(-k x1), with the circuit states
and generator signals chosen so that the coupled equations hold exactly.
All time derivatives are coded analytically.  Each flow field is a tuple of
terms (c(t), g(points)), time coefficients times fixed profiles; time
enters only through `fem.TimeSeparable`, which evaluates them as initial
data, error references and the loads that drive the solver.  The external
pressure pbar(t) of a domain with a Neumann side enters its load as one
more such term, -pbar(t) times the assembled side functional sigma; the
oracle audit here reads pbar itself, independently of the solver's load.

Geometry note: in the two-domain benchmark the second channel has its
interface on the left side (x1 = 0) and its external side on the right
(x1 = L), mirroring the single-channel layout.  Internal consistency of
the coupling then fixes the interface pressure to s2(t) P2(0) and the
external pressure to s2(t) P2(L); with the unmirrored arguments the
circuit equations cannot be satisfied.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .params import Example1Params, Example2Params, Example3Params
from . import circuits as circ
from .fem import (TimeSeparable, assemble_body_force, interpolate_pressure,
                  interpolate_velocity)


@dataclass(frozen=True)
class DomainExact:
    velocity: tuple             # ((c(t), g(points) -> (N, 2)), ...)
    pressure: tuple             # ((c(t), g(points) -> (N,)), ...)
    dv_dt: tuple                # ((c(t), g(points) -> (N, 2)), ...)
    force: tuple                # ((c(t), g(points) -> (N, 2)), ...), per unit mass
    pbar: Optional[Callable]    # t -> external pressure, None without a Neumann side
    # each field is sum_j c_j(t) g_j(points).  The c and pbar broadcast: on an
    # array of times they return an array of its shape, each entry equal
    # bitwise to the value at that time alone, so a run or an error norm
    # evaluates them once for many times


@dataclass(frozen=True)
class InterfaceExact:
    P: Callable
    Q: Callable
    pi: Callable


@dataclass(frozen=True)
class ExactSolutionSet:
    params: object
    tau: float
    domains: tuple              # DomainExact per flow region
    y: Callable                 # t -> circuit state
    dy_dt: Callable             # t -> analytic state derivative
    interfaces: dict            # interface_id -> InterfaceExact
    generators: dict            # signal name -> callable


def _drive(p):
    s = lambda t: p.s0 + p.s1 * np.sin(p.omega * t)
    ds = lambda t: p.s1 * p.omega * np.cos(p.omega * t)
    d2s = lambda t: -p.s1 * p.omega ** 2 * np.sin(p.omega * t)
    d3s = lambda t: -p.s1 * p.omega ** 3 * np.cos(p.omega * t)
    return s, ds, d2s, d3s


def _profile_fields(p, a0, a1):
    """Velocity profile, its second derivative and the pressure profile."""
    kappa = np.pi / p.H
    V = lambda x2: p.V0 * np.cos(kappa * x2) ** 2
    Vpp = lambda x2: -2.0 * p.V0 * kappa ** 2 * np.cos(2.0 * kappa * x2)
    P = lambda x1: a0 + a1 * np.exp(-p.k * x1)
    dP = lambda x1: -a1 * p.k * np.exp(-p.k * x1)
    return V, Vpp, P, dP


def _channel_fields(p, s, ds, a0, a1):
    """Velocity s(t) [V, 0], pressure s(t) Pr, their momentum source."""
    V, Vpp, Pr, dPr = _profile_fields(p, a0, a1)
    g1 = lambda x: np.column_stack([V(x[:, 1]), np.zeros(len(x))])
    # f = [ds V - (mu/rho) s V'' + (s/rho) P', 0]; grouped as two separable terms
    g2 = lambda x: np.column_stack(
        [-(p.mu / p.rho) * Vpp(x[:, 1]) + dPr(x[:, 0]) / p.rho, np.zeros(len(x))])
    fields = dict(velocity=((s, g1),), pressure=((s, lambda x: Pr(x[:, 0])),),
                  dv_dt=((ds, g1),), force=((ds, g1), (s, g2)))
    return fields, Pr


def example1_exact(p: Example1Params | None = None, nonlinear: bool = False) -> ExactSolutionSet:
    p = p if p is not None else Example1Params()
    s, ds, d2s, _ = _drive(p)
    fields, Pr = _channel_fields(p, s, ds, p.a0, p.a1)

    qc = p.V0 * p.H / 2.0
    c_pi = Pr(p.L) - p.R11_1 * qc       # pi(t) = c_pi s(t)

    P_t = lambda t: s(t) * Pr(p.L)
    Q_t = lambda t: qc * s(t)
    dQ_t = lambda t: qc * ds(t)
    pi_t = lambda t: c_pi * s(t)
    dpi_t = lambda t: c_pi * ds(t)
    d2pi_t = lambda t: c_pi * d2s(t)

    if nonlinear:
        def circuit_values(t):
            """w(t), dw/dt(t), R_a and C_a on the exact solution at time t."""
            pi, dpi = pi_t(t), dpi_t(t)
            ra = circ.resistance_a(pi, p)
            X = pi - ra * (Q_t(t) - p.C11_1 * dpi)
            dra = circ.resistance_a_prime(pi, p) * dpi
            dX = dpi - dra * (Q_t(t) - p.C11_1 * dpi) - ra * (dQ_t(t) - p.C11_1 * d2pi_t(t))
            disc = 1.0 + 4.0 * p.gamma1 * p.Cbar_a * X
            if np.any(np.asarray(disc) < 0):
                raise ValueError("negative discriminant in the volume formula; "
                                 "invalid parameter regime")
            w = (-1.0 + np.sqrt(disc)) / (2.0 * p.gamma1)
            return w, p.Cbar_a * dX / np.sqrt(disc), ra, p.Cbar_a / (1.0 + p.gamma1 * w)
    else:
        def circuit_values(t):
            """The gamma1 = 0 limit: w = Cbar_a [pi - Rbar_a (Q - C11 dpi/dt)]."""
            w = p.Cbar_a * (pi_t(t) - p.Rbar_a * (Q_t(t) - p.C11_1 * dpi_t(t)))
            dw = p.Cbar_a * (dpi_t(t) - p.Rbar_a * (dQ_t(t) - p.C11_1 * d2pi_t(t)))
            return w, dw, p.Rbar_a, p.Cbar_a

    def p_tilde(t):
        w, dw, ra, ca = circuit_values(t)
        return (p.R_b * dw - (p.R_b / ra) * pi_t(t)
                + (p.R_b / ca) * (1.0 / ra + 1.0 / p.R_b) * w)

    dom = DomainExact(**fields, pbar=lambda t: s(t) * Pr(0.0))
    return ExactSolutionSet(
        params=p, tau=p.tau, domains=(dom,),
        y=lambda t: np.array([pi_t(t), circuit_values(t)[0]]),
        dy_dt=lambda t: np.array([dpi_t(t), circuit_values(t)[1]]),
        interfaces={(1, 1, 1): InterfaceExact(P_t, Q_t, pi_t)},
        generators={"p_tilde": p_tilde},
    )


def example2_exact(p: Example2Params | None = None) -> ExactSolutionSet:
    p = p if p is not None else Example2Params()
    s1, ds1, d2s1, d3s1 = _drive(p)
    qc = p.V0 * p.H / 2.0

    fields1, Pr1 = _channel_fields(p, s1, ds1, p.a01, p.a11)

    c1 = Pr1(p.L) - p.R11_1 * qc
    pi1 = lambda t: c1 * s1(t)
    dpi1 = lambda t: c1 * ds1(t)
    Q1 = lambda t: qc * s1(t)
    P1 = lambda t: s1(t) * Pr1(p.L)

    # w = Q1 - C11 dpi1/dt and its derivatives, all sinusoidal
    w = lambda t: qc * s1(t) - p.C11_1 * c1 * ds1(t)
    dw = lambda t: qc * ds1(t) - p.C11_1 * c1 * d2s1(t)
    d2w = lambda t: qc * d2s1(t) - p.C11_1 * c1 * d3s1(t)

    pi2 = lambda t: pi1(t) - p.R_a * w(t) - p.L_a * dw(t)
    dpi2 = lambda t: dpi1(t) - p.R_a * dw(t) - p.L_a * d2w(t)

    den2 = p.a02 + p.a12 + p.R21_1 * qc
    s2 = lambda t: pi2(t) / den2
    ds2 = lambda t: dpi2(t) / den2

    fields2, Pr2 = _channel_fields(p, s2, ds2, p.a02, p.a12)

    Q2 = lambda t: -qc * s2(t)
    P2 = lambda t: s2(t) * Pr2(0.0)        # interface on the left side of domain 2

    def p_tilde(t):
        return -p.R_b * w(t) + pi2(t) - p.R_b * Q2(t) + p.R_b * p.C21_1 * dpi2(t)

    dom1 = DomainExact(**fields1, pbar=lambda t: s1(t) * Pr1(0.0))
    dom2 = DomainExact(**fields2, pbar=lambda t: s2(t) * Pr2(p.L))
    return ExactSolutionSet(
        params=p, tau=p.tau, domains=(dom1, dom2),
        y=lambda t: np.array([pi1(t), pi2(t), w(t)]),
        dy_dt=lambda t: np.array([dpi1(t), dpi2(t), dw(t)]),
        interfaces={
            (1, 1, 1): InterfaceExact(P1, Q1, pi1),
            (2, 1, 1): InterfaceExact(P2, Q2, pi2),
        },
        generators={"p_tilde": p_tilde},
    )


def example3_exact(p: Example3Params | None = None) -> ExactSolutionSet:
    p = p if p is not None else Example3Params()
    s, ds, _, _ = _drive(p)
    fields, Pr = _channel_fields(p, s, ds, p.a0, p.a1)
    qc = p.V0 * p.H / 2.0

    pi1 = lambda t: s(t) * (Pr(p.L) - p.R11_1 * qc)
    dpi1 = lambda t: ds(t) * (Pr(p.L) - p.R11_1 * qc)
    pi2 = lambda t: s(t) * (Pr(0.0) + p.R11_2 * qc)
    dpi2 = lambda t: ds(t) * (Pr(0.0) + p.R11_2 * qc)
    P1 = lambda t: s(t) * Pr(p.L)
    P2 = lambda t: s(t) * Pr(0.0)
    Q1 = lambda t: qc * s(t)
    Q2 = lambda t: -qc * s(t)

    # particular periodic solution of L_c w' + R_c w = pi1 - pi2
    C_coef = (Pr(p.L) - Pr(0.0) - (p.R11_1 + p.R11_2) * qc) / p.R_c
    lam1 = p.s0 * C_coef
    lam2 = p.s1 * C_coef / ((p.omega * p.L_c / p.R_c) ** 2 + 1.0)
    lam3 = -p.omega * lam2 * p.L_c / p.R_c
    w = lambda t: lam1 + lam2 * np.sin(p.omega * t) + lam3 * np.cos(p.omega * t)
    dw = lambda t: p.omega * (lam2 * np.cos(p.omega * t) - lam3 * np.sin(p.omega * t))

    def p_tilde_a(t):
        return p.R_a * p.C11_1 * dpi1(t) + pi1(t) + (w(t) - Q1(t)) * p.R_a

    def p_tilde_b(t):
        return p.R_b * p.C11_2 * dpi2(t) + pi2(t) - (w(t) + Q2(t)) * p.R_b

    dom = DomainExact(**fields, pbar=None)
    return ExactSolutionSet(
        params=p, tau=p.tau, domains=(dom,),
        y=lambda t: np.array([pi1(t), pi2(t), w(t)]),
        dy_dt=lambda t: np.array([dpi1(t), dpi2(t), dw(t)]),
        interfaces={
            (1, 1, 1): InterfaceExact(P1, Q1, pi1),
            (1, 1, 2): InterfaceExact(P2, Q2, pi2),
        },
        generators={"p_tilde_a": p_tilde_a, "p_tilde_b": p_tilde_b},
    )


def exact_for(example: int, nonlinear: bool = False, params=None) -> ExactSolutionSet:
    if nonlinear and example != 1:
        raise ValueError(f"only example 1 has a nonlinear variant, got example={example}")
    if example == 1:
        return example1_exact(params, nonlinear)
    if example == 2:
        return example2_exact(params)
    if example == 3:
        return example3_exact(params)
    raise ValueError(f"example must be 1, 2 or 3, got {example}")


@dataclass
class OracleReport:
    """Verification residuals, each normalized by the magnitude of the terms
    entering the identity (equation scales reach 1e5 in cgs, so absolute
    residuals would sit at rounding level ~1e-10 even for exact algebra)."""
    circuit_residual: float     # max rel |dy/dt - (A y + s + b)| over sampled times
    coupling_residual: float    # max rel |P - pi - R Q|
    flux_residual: float        # max rel |Q - quadrature of v . n over the interface|
    weak_residual: float        # relative discrete momentum residual of interpolants
    mesh_h: float

    def rows(self):
        return [("circuit_ode_residual", self.circuit_residual),
                ("interface_coupling_residual", self.coupling_residual),
                ("interface_flux_residual", self.flux_residual),
                ("weak_form_relative_residual", self.weak_residual)]


def verify_exact(system, exact: ExactSolutionSet, times) -> OracleReport:
    """Self-consistency audit of an exact-solution set against a built system.

    Checks, at the sampled times: the circuit ODE with analytic state
    derivatives, the pressure/flow relation across each connection, the
    closed-form flow rates against line quadrature of the velocity profile,
    and the discrete momentum residual of the interpolated fields (the last
    is a spatial-discretization measure, expected to scale like h^2).
    """
    times = np.asarray(times, dtype=float)
    spec = system.circuit
    conns = {c.interface_id: c for _, c in system.connections}

    circuit_res = 0.0
    coupling_res = 0.0
    for t in times:
        y = exact.y(t)
        b = np.zeros(spec.dim)
        for iid, conn in conns.items():
            b[conn.pi_index] += exact.interfaces[iid].Q(t) / conn.capacitance
        dy = exact.dy_dt(t)
        A, src = spec.matrix(y, t), spec.s(t)
        rhs = A @ y + src + b
        # backward-error row scale: the terms summed in each row bound the
        # attainable cancellation accuracy
        scale = np.abs(A) @ np.abs(y) + np.abs(src) + np.abs(b) + np.abs(dy)
        circuit_res = max(circuit_res, float(
            np.max(np.abs(dy - rhs) / np.maximum(scale, 1.0))))
        for iid, conn in conns.items():
            ie = exact.interfaces[iid]
            P, pi, RQ = float(ie.P(t)), float(ie.pi(t)), conn.resistance * float(ie.Q(t))
            coupling_res = max(coupling_res,
                               abs(P - pi - RQ) / max(abs(P), abs(pi), abs(RQ), 1.0))

    # flow rates against 40-point Gauss quadrature of v . n over each side;
    # interfaces are full vertical sides, so n = (+-1, 0)
    from .mesh import TagKind

    gx, gw = np.polynomial.legendre.leggauss(40)
    flux_res = 0.0
    for d, conn in system.connections:
        mesh = system.domains[d].space.mesh
        eids = mesh.edges_with_kind(TagKind.INTERFACE, conn.interface_id)
        x1 = float(mesh.vertices[mesh.edges[eids[0]][0], 0])
        nx = 1.0 if x1 > 0.5 * mesh.domain.length else -1.0
        H = mesh.domain.height
        y_q = 0.5 * H * gx
        w_q = 0.5 * H * gw
        pts = np.column_stack([np.full_like(y_q, x1), y_q])
        velocity = TimeSeparable(exact.domains[d].velocity, lambda g: g(pts))
        for t in times:
            v = velocity(t)
            q_quad = nx * float(v[:, 0] @ w_q)
            q_ref = float(exact.interfaces[conn.interface_id].Q(t))
            flux_res = max(flux_res, abs(q_quad - q_ref) / max(abs(q_ref), 1.0))

    weak = 0.0
    h = 0.0
    for di, (dom, dex) in enumerate(zip(system.domains, exact.domains)):
        space, ops = dom.space, dom.ops
        h = max(h, float(np.sqrt(2.0 * np.max(np.abs(space.mesh.signed_areas())))))
        velocity = TimeSeparable(dex.velocity, partial(interpolate_velocity, space))
        pressure = TimeSeparable(dex.pressure, partial(interpolate_pressure, space))
        dv_dt = TimeSeparable(dex.dv_dt, partial(interpolate_velocity, space))
        for t in times[:: max(1, len(times) // 5)]:
            u = velocity(t)
            r = dom.rho * (ops.M @ dv_dt(t)) + dom.mu * (ops.K @ u) - ops.D.T @ pressure(t)
            # the force summed at the quadrature points, not the solver's load
            force = lambda x: TimeSeparable(dex.force, lambda g: g(x))(t)
            load = dom.rho * assemble_body_force(space, force)
            r -= load
            if dex.pbar is not None:
                r += float(dex.pbar(t)) * ops.sigma
            for d, conn in system.connections:
                if d == di:
                    iid = conn.interface_id
                    r += float(exact.interfaces[iid].P(t)) * ops.flux[iid]
            r = r[space.free]
            scale = max(float(np.linalg.norm(dom.mu * (ops.K @ u))),
                        float(np.linalg.norm(load)), 1e-300)
            weak = max(weak, float(np.linalg.norm(r)) / scale)

    return OracleReport(circuit_res, coupling_res, flux_res, weak, h)
