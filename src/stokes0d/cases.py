"""Ready-to-run systems for the three benchmark configurations.

Geometry of the channels (walls top and bottom in all cases):

  benchmark 1   one channel, external pressure side left, interface right
  benchmark 2   two channels back to back through one circuit: channel 1 as
                in benchmark 1, channel 2 with the interface left and the
                external side right
  benchmark 3   one channel inside a closed circuit, interfaces on both
                vertical sides, no external side
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import circuits as circ
from . import mesh as msh
from .exact import ExactSolutionSet, exact_for
from .fem import (TimeSeparable, _boundary_functionals, assemble_body_force,
                  assemble_operators, build_space, interpolate_pressure, interpolate_velocity)
from .params import params_for
from .splitting import CoupledState, CoupledSystem, Domain, read_only

DEFAULT_SUBSTEPS = {1: 5, 2: 10, 3: 10}


# each benchmark's channels by their (left, right) sides; all have walls top and bottom
CHANNEL_SIDES = {
    1: [(msh.external(), msh.interface(1, 1, 1))],
    2: [(msh.external(), msh.interface(1, 1, 1)), (msh.interface(2, 1, 1), msh.external())],
    3: [(msh.interface(1, 1, 2), msh.interface(1, 1, 1))],
}


def TimeSeparableLoad(space, ops, terms, pbar) -> TimeSeparable:
    """The stage-1 momentum load sum_j c_j(t) F_j of force terms (c_j, g_j),
    each F_j assembled once from its profile g_j, and, where the domain has
    an external side (`pbar` not None), its traction -pbar(t) sigma as one
    more term."""
    if pbar is not None:
        terms = [*terms, (lambda t: -pbar(t), ops.sigma)]
    return TimeSeparable(
        terms, lambda g: g if g is ops.sigma else assemble_body_force(space, g))


def _circuit(example, p, exact: ExactSolutionSet, zero_forcing: bool, nonlinear: bool):
    gen = (lambda name: None) if zero_forcing else exact.generators.get
    if example == 1:
        return circ.example1_circuit(p, nonlinear, gen("p_tilde"))
    if example == 2:
        return circ.example2_circuit(p, gen("p_tilde"))
    return circ.example3_circuit(p, gen("p_tilde_a"), gen("p_tilde_b"))


@dataclass
class Case:
    params: object
    system: CoupledSystem
    exact: ExactSolutionSet
    s_sub: int

    @property
    def tau(self) -> float:
        return self.exact.tau

    def initial_state(self) -> CoupledState:
        """Exact solution at t = 0 (also used for the unforced stability runs)."""
        vels, prs = [], []
        for d, dex in zip(self.system.domains, self.exact.domains):
            vels.append(TimeSeparable(dex.velocity, partial(interpolate_velocity, d.space))(0.0))
            prs.append(TimeSeparable(dex.pressure, partial(interpolate_pressure, d.space))(0.0))
        vels, prs = tuple(map(read_only, vels)), tuple(map(read_only, prs))
        ies = [self.exact.interfaces[c.interface_id] for _, c in self.system.connections]
        flows, node_pressures = read_only(np.array([(ie.Q(0.0), ie.pi(0.0)) for ie in ies]).T)
        return CoupledState(vels, prs, read_only(self.exact.y(0.0)),
                            flows, node_pressures, 0.0, self.system.mass_products(vels))


def build_case(example: int, *, nonlinear: bool = False, nx: int = 100, ny: int = 20,
               params=None, zero_forcing: bool = False) -> Case:
    """Assemble mesh, spaces, operators, circuit and exact solution.

    `zero_forcing` nulls body forces, external pressures and generators
    while keeping the same operators and exact initial data; with constant
    circuit coefficients that is the setting in which the total discrete
    energy must decay monotonically for every time step.
    """
    p = params if params is not None else params_for(example)
    p.check_circuit_elements()
    exact = exact_for(example, nonlinear=nonlinear, params=p)

    domains = []
    for (left, right), dex in zip(CHANNEL_SIDES[example], exact.domains):
        layout = {"left": left, "right": right, "top": msh.wall(), "bottom": msh.wall()}
        mesh = msh.build_rect_mesh(msh.RectDomain(p.L, p.H), nx, ny, layout)
        space = build_space(mesh)
        # the channels differ only in their side tags: a later one shares the
        # first one's matrices and forms its own boundary functionals
        ops = (replace(domains[0].ops, **_boundary_functionals(space)) if domains
               else assemble_operators(space))
        body_load = None
        if not zero_forcing:
            rho = p.rho
            terms = [(lambda t, c=c: rho * c(t), g) for c, g in dex.force]
            body_load = TimeSeparableLoad(space, ops, terms, dex.pbar)
        domains.append(Domain(space, ops, p.rho, p.mu, body_load))

    circuit = _circuit(example, p, exact, zero_forcing, nonlinear)
    system = CoupledSystem(domains, circuit)
    return Case(p, system, exact, DEFAULT_SUBSTEPS[example])
