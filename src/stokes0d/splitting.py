"""Two-substep time integrator for flow domains coupled to lumped circuits.

Each global step of size dt advances the coupled state in two stages that
communicate only through initial conditions:

  stage 1  implicit Euler on every flow domain together with the interface
           part of the circuit dynamics.  The unknowns are velocity,
           pressure and, per connection k, the interface flow rate Q_k and
           the circuit-side node pressure pi_k; the interface pressure
           P_k = pi_k + R_k Q_k couples them inside one linear solve, so no
           subiteration is ever needed.  Remaining circuit states are
           frozen (their interface-driven rate is zero for resistive
           connections).

  stage 2  the interior circuit dynamics d(y)/dt = A y + s, subcycled with
           dt2 = dt / s_sub by semi-implicit Euler; velocities and
           pressures are not touched.

The stage-1 matrix does not depend on time, so it is factorized once per
(dt, variant) and reused for every step of a run.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from . import sparse
from .circuits import step2_integrate
from .fem import AssembledOperators, StokesSpace
from .mesh import TriangleMesh


@dataclass
class Domain:
    """One flow region with its discretization and forcing data."""
    mesh: TriangleMesh
    space: StokesSpace
    ops: AssembledOperators
    rho: float
    mu: float
    body_load: Optional[Callable] = None   # t -> momentum load (rho-scaled), full dofs
    pbar: Optional[Callable] = None        # t -> external pressure on the Neumann side


@dataclass(frozen=True)
class InterfaceValues:
    P: float
    Q: float
    pi: float


@dataclass
class CoupledState:
    """The coupled state at time t.  No step changes a state it is handed:
    each stage returns a new one, sharing only arrays it leaves as they are."""
    velocities: list
    pressures: list
    ys: list
    interfaces: dict            # interface_id -> InterfaceValues
    t: float


@dataclass(frozen=True)
class StepConfig:
    dt: float
    s_sub: int = 1

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.s_sub < 1:
            raise ValueError("s_sub must be >= 1")


class CoupledSystem:
    """Flow domains and circuits, wired by the ids (l, m, k) of the circuits'
    connections: connection k of circuit m attaches to flow domain l."""

    def __init__(self, domains, circuits):
        self.domains = list(domains)
        self.circuits = list(circuits)
        # (domain index, circuit index, connection), in circuit order
        self.connections = [(c.interface_id[0] - 1, m, c)
                            for m, spec in enumerate(self.circuits)
                            for c in spec.connections]
        self._step1_cache = {}
        self._validate()

    def _validate(self):
        for _, m, c in self.connections:
            l, owner, _ = c.interface_id
            if not 1 <= l <= len(self.domains):
                raise ValueError(f"connection {c.interface_id}: no flow domain {l}")
            if owner != m + 1:
                raise ValueError(f"connection {c.interface_id} is held by circuit {m + 1}")
        mesh_ids = {(d, iid) for d, dom in enumerate(self.domains)
                    for iid in dom.mesh.interface_ids()}
        bound_ids = [(d, c.interface_id) for d, _, c in self.connections]
        if len(bound_ids) != len(set(bound_ids)):
            raise ValueError("an interface is connected more than once")
        if set(bound_ids) != mesh_ids:
            raise ValueError(f"connections {sorted(set(bound_ids))} do not "
                             f"match tagged mesh interfaces {sorted(mesh_ids)}")

    def zero_state(self) -> CoupledState:
        vels = [np.zeros(d.space.n_velocity) for d in self.domains]
        prs = [np.zeros(d.space.n_pressure) for d in self.domains]
        ys = [np.zeros(c.dim) for c in self.circuits]
        ifs = {c.interface_id: InterfaceValues(0.0, 0.0, 0.0)
               for _, _, c in self.connections}
        return CoupledState(vels, prs, ys, ifs, 0.0)

    def step1_solver(self, dt: float, explicit_pi: bool = False) -> "_Step1Solver":
        key = (dt, explicit_pi)
        if key not in self._step1_cache:
            self._step1_cache[key] = _Step1Solver(self, dt, explicit_pi)
        return self._step1_cache[key]


class _Step1Solver:
    """Assembled and factorized stage-1 system for one time step size.

    Unknown layout: per domain the free velocity dofs then the pressures,
    then per connection the pair (Q_k, pi_k).  `explicit_pi` is a test-only
    variant that moves the pi coupling in the momentum equation to the
    right-hand side (lagged at the previous step), which breaks the
    discrete energy balance and with it unconditional stability.
    """

    def __init__(self, system: CoupledSystem, dt: float, explicit_pi: bool):
        self.system = system
        self.dt = dt
        self.explicit_pi = explicit_pi

        self.v_off, self.p_off = [], []
        off = 0
        self.Mff = []
        self.Kff = []
        for dom in system.domains:
            free = dom.space.free
            nf, npr = len(free), dom.space.n_pressure
            self.v_off.append(off)
            self.p_off.append(off + nf)
            off += nf + npr
            M = dom.ops.M.tocsr()[free][:, free]
            K = dom.ops.K.tocsr()[free][:, free]
            self.Mff.append(M)
            self.Kff.append(K)
        self.q_off = []
        self.pi_off = []
        for _ in system.connections:
            self.q_off.append(off)
            self.pi_off.append(off + 1)
            off += 2
        self.n = off

        blocks = []   # (rows, cols, values) of each block
        for d, dom in enumerate(system.domains):
            free = dom.space.free
            vo, po = self.v_off[d], self.p_off[d]
            Avv = ((dom.rho / dt) * self.Mff[d] + dom.mu * self.Kff[d]).tocoo()
            blocks.append((vo + Avv.row, vo + Avv.col, Avv.data))
            Df = dom.ops.D.tocsr()[:, free].tocoo()
            blocks.append((po + Df.row, vo + Df.col, Df.data))      # continuity
            blocks.append((vo + Df.col, po + Df.row, -Df.data))     # -D^T p
        for b, (d, _, conn) in enumerate(system.connections):
            dom = system.domains[d]
            free = dom.space.free
            vo = self.v_off[d]
            phi = dom.ops.flux[conn.interface_id][free]
            nz = np.nonzero(phi)[0]
            R, C = conn.resistance, conn.capacitance
            qo, pio = self.q_off[b], self.pi_off[b]
            blocks.append((vo + nz, np.full(len(nz), qo), R * phi[nz]))
            if not explicit_pi:
                blocks.append((vo + nz, np.full(len(nz), pio), phi[nz]))
            blocks.append((np.full(len(nz), qo), vo + nz, -phi[nz]))
            blocks.append(([qo, pio, pio], [qo, qo, pio], [1.0, -dt / C, 1.0]))

        rows, cols, vals = (np.concatenate(part) for part in zip(*blocks))
        self.matrix = sp.csr_matrix((vals, (rows, cols)), shape=(self.n, self.n))
        try:
            self.factorization = sparse.factorize(self.matrix)
        except Exception as err:
            raise RuntimeError(
                f"stage-1 factorization failed for {self._describe()}: {err}") from err

    def _describe(self) -> str:
        ifs = ", ".join(str(c.interface_id) for _, _, c in self.system.connections)
        return (f"{len(self.system.domains)} domain(s) with interfaces [{ifs}] "
                f"at dt={self.dt}")

    def solve(self, state: CoupledState) -> CoupledState:
        sys_ = self.system
        t_new = state.t + self.dt
        rhs = np.zeros(self.n)
        for d, dom in enumerate(sys_.domains):
            free = dom.space.free
            vo = self.v_off[d]
            r = (dom.rho / self.dt) * (self.Mff[d] @ state.velocities[d][free])
            if dom.body_load is not None:
                r += dom.body_load(t_new)[free]
            if dom.pbar is not None:
                r -= float(dom.pbar(t_new)) * dom.ops.sigma[free]
            rhs[vo:vo + len(free)] = r
        for b, (d, m, conn) in enumerate(sys_.connections):
            pi_n = state.ys[m][conn.pi_index]
            rhs[self.pi_off[b]] = pi_n
            if self.explicit_pi:
                dom = sys_.domains[d]
                free = dom.space.free
                vo = self.v_off[d]
                phi = dom.ops.flux[conn.interface_id][free]
                rhs[vo:vo + len(free)] -= pi_n * phi

        try:
            x = self.factorization.solve(rhs)
        except Exception as err:
            raise RuntimeError(f"stage-1 solve failed at t={state.t} for "
                               f"{self._describe()}: {err}") from err

        vels, prs = [], []
        for d, dom in enumerate(sys_.domains):
            free = dom.space.free
            vo, po = self.v_off[d], self.p_off[d]
            v = np.zeros(dom.space.n_velocity)
            v[free] = x[vo:vo + len(free)]
            vels.append(v)
            prs.append(x[po:po + dom.space.n_pressure].copy())
        ys = [y.copy() for y in state.ys]
        interfaces = {}
        for b, (_, m, conn) in enumerate(sys_.connections):
            Q = float(x[self.q_off[b]])
            pi = float(x[self.pi_off[b]])
            ys[m][conn.pi_index] = pi
            interfaces[conn.interface_id] = InterfaceValues(pi + conn.resistance * Q, Q, pi)
        return CoupledState(vels, prs, ys, interfaces, state.t)


def step1(system: CoupledSystem, state: CoupledState, dt: float,
          explicit_pi: bool = False) -> CoupledState:
    """Stage 1: one implicit step of the flow/interface subsystem.

    Returns the intermediate state: velocities and pressures at the new
    time level, circuit node pressures updated, remaining circuit entries
    copied unchanged.  The state's clock still marks the interval start;
    stage 2 advances it.
    """
    return system.step1_solver(dt, explicit_pi).solve(state)


def step2(system: CoupledSystem, state: CoupledState, dt: float,
          s_sub: int) -> CoupledState:
    """Stage 2: interior circuit dynamics; velocities and pressures are
    reused as-is (bitwise), only circuit states and the clock move."""
    ys = [step2_integrate(spec, y, state.t, s_sub, dt / s_sub)
          for spec, y in zip(system.circuits, state.ys)]
    return CoupledState(state.velocities, state.pressures, ys,
                        state.interfaces, state.t + dt)


@dataclass
class StepRecord:
    """Everything observers may want after one global step."""
    step: int
    previous: CoupledState
    intermediate: CoupledState
    state: CoupledState


def run(system: CoupledSystem, state: CoupledState, config: StepConfig,
        n_steps: int, observers=(), explicit_pi: bool = False) -> CoupledState:
    """Apply step1 then step2 n_steps times, invoking observers after each
    step."""
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    for n in range(n_steps):
        mid = step1(system, state, config.dt, explicit_pi)
        new = step2(system, mid, config.dt, config.s_sub)
        record = StepRecord(n, state, mid, new)
        for obs in observers:
            obs(record)
        state = new
    return state
