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

Both stages are driven by known functions of time only: the body loads and
external pressures of stage 1 at each step's end time, the generator
sources of stage 2 at each substep's end time.  A run evaluates each of
them once per block of up to BLOCK_STEPS steps, in one call on the block's
whole time grid, and hands every step its slice.

The stage-1 matrix does not depend on time, so it is factorized once per
(dt, variant) and reused for every step of a run.  Its unknowns are
eliminated in nested-dissection order of each domain's quadratic node grid,
computed once per system and shared by every dt.

A run forms the mass product M v of each new state once per domain and hands
it on in the step record: the next step's stage-1 right-hand side and the
observers' kinetic energies and norms all read it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from . import sparse
from .circuits import step2_integrate
from .fem import AssembledOperators, StokesSpace, TimeSeparableLoad
from .mesh import TriangleMesh


@dataclass
class Domain:
    """One flow region with its discretization and forcing data."""
    mesh: TriangleMesh
    space: StokesSpace
    ops: AssembledOperators
    rho: float
    mu: float
    body_load: Optional[TimeSeparableLoad] = None   # momentum load (rho-scaled), full dofs
    pbar: Optional[Callable] = None   # t -> external pressure on the Neumann side,
                                      # shape np.shape(t) for an array t


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


def check_positive(name: str, value: float) -> None:
    """Reject a value that is not a positive finite number, naming it."""
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {name}={value}")


@dataclass(frozen=True)
class StepConfig:
    dt: float
    s_sub: int = 1

    def __post_init__(self):
        check_positive("dt", self.dt)
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

    @cached_property
    def step1_order(self) -> np.ndarray:
        """Elimination order of the stage-1 unknowns (in the layout of
        `_Step1Solver`): each domain by nested dissection of its node grid,
        a group's velocities before its pressures, the (Q, pi) pairs last."""
        parts, off = [], 0
        for dom in self.domains:
            space = dom.space
            node = np.concatenate([space.free % space.n_scalar,
                                   np.arange(space.n_pressure)])
            kind = np.repeat([0, 1], [len(space.free), space.n_pressure])
            group = _dissection_keys(space.node_grid())[node]
            parts.append(off + np.lexsort((node, kind, group)))
            off += len(node)
        parts.append(np.arange(off, off + 2 * len(self.connections)))
        return np.concatenate(parts)

    def zero_state(self) -> CoupledState:
        vels = [np.zeros(d.space.n_velocity) for d in self.domains]
        prs = [np.zeros(d.space.n_pressure) for d in self.domains]
        ys = [np.zeros(c.dim) for c in self.circuits]
        ifs = {c.interface_id: InterfaceValues(0.0, 0.0, 0.0)
               for _, _, c in self.connections}
        return CoupledState(vels, prs, ys, ifs, 0.0)

    def mass_products(self, velocities) -> list:
        """M v of each domain's velocity."""
        return [dom.ops.M @ v for dom, v in zip(self.domains, velocities)]

    def step1_solver(self, dt: float, explicit_pi: bool = False) -> "_Step1Solver":
        key = (dt, explicit_pi)
        if key not in self._step1_cache:
            self._step1_cache[key] = _Step1Solver(self, dt, explicit_pi)
        return self._step1_cache[key]


def _dissection_keys(grid: np.ndarray) -> np.ndarray:
    """Nested dissection of nodes at integer grid positions (i, j), level by
    level for all boxes at once.

    A box is cut along the even grid line nearest its middle, across its
    wider side, into two halves and the separator on the line; boxes with no
    even line strictly inside are leaves.  On the quadratic node grid of a
    triangulation the even lines carry the vertices, and no element has
    nodes on both sides of one.  Ascending keys number each box's lower
    half, then its upper half, then its separator.
    """
    rows = np.arange(len(grid))
    lo = np.zeros_like(grid)
    hi = np.broadcast_to(grid.max(axis=0), grid.shape).copy()
    key = np.zeros(len(grid), dtype=np.int64)
    open_ = np.ones(len(grid), dtype=bool)
    while open_.any():
        cut = 2 * ((lo + hi + 2) // 4)
        inside = (lo < cut) & (cut < hi)
        wide = hi - lo
        axis = (inside[:, 1] & (~inside[:, 0] | (wide[:, 1] > wide[:, 0]))).astype(np.intp)
        c, pos = cut[rows, axis], grid[rows, axis]
        open_ &= inside[rows, axis] & (pos != c)
        upper = open_ & (pos > c)
        lower = open_ & ~upper
        key = 3 * key + np.where(open_, upper, 2)
        hi[lower, axis[lower]] = c[lower] - 1
        lo[upper, axis[upper]] = c[upper] + 1
    return key


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
        for dom in system.domains:
            nf, npr = len(dom.space.free), dom.space.n_pressure
            self.v_off.append(off)
            self.p_off.append(off + nf)
            off += nf + npr
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
            Mff, Kff = (A.tocsr()[free][:, free] for A in (dom.ops.M, dom.ops.K))
            Avv = ((dom.rho / dt) * Mff + dom.mu * Kff).tocoo()
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
            self.factorization = sparse.factorize(self.matrix, system.step1_order)
        except Exception as err:
            raise RuntimeError(
                f"stage-1 factorization failed for {self._describe()}: {err}") from err

    def _describe(self) -> str:
        ifs = ", ".join(str(c.interface_id) for _, _, c in self.system.connections)
        return (f"{len(self.system.domains)} domain(s) with interfaces [{ifs}] "
                f"at dt={self.dt}")

    def solve(self, state: CoupledState, loads, mass_products=None) -> CoupledState:
        """Stage 1 from `state`, with `loads` the step's slice of
        `stage1_loads` (one pair per domain) and `mass_products` its
        velocities' M v, formed here when not given.  The momentum rows take
        (M v)[free], which is Mff v[free] bit for bit: csr_matvec sums each
        row in stored order, and a computed velocity is exactly 0 on the
        walls (the benchmarks' initial data, ~1e-32 there, stay below the
        sums' last bit)."""
        sys_ = self.system
        if mass_products is None:
            mass_products = sys_.mass_products(state.velocities)
        rhs = np.zeros(self.n)
        for d, (dom, (coefficients, pbar)) in enumerate(zip(sys_.domains, loads)):
            free = dom.space.free
            vo = self.v_off[d]
            r = (dom.rho / self.dt) * mass_products[d][free]
            if coefficients is not None:
                r += dom.body_load.vector(coefficients)[free]
            if pbar is not None:
                r -= float(pbar) * dom.ops.sigma[free]
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


# A run evaluates its time-only inputs for at most this many steps at once,
# so a long run holds arrays of a bounded size.
BLOCK_STEPS = 2048


def step_times(t: float, dt: float, n_steps: int) -> np.ndarray:
    """The clock of n_steps steps from t: t, t + dt, (t + dt) + dt, ...
    (n_steps + 1 times), the same sums in the same order as each step's
    `state.t + dt`, so every time equals the state's clock bitwise."""
    return np.add.accumulate(np.concatenate(([t], np.full(n_steps, dt))))


def stage1_loads(system: CoupledSystem, ends: np.ndarray) -> list:
    """Per domain, the body-load coefficients, shape (n, terms), and the
    external pressure, shape (n,), at the n step end times `ends`; None
    where a domain has no such load."""
    out = []
    for d, dom in enumerate(system.domains):
        coefficients = pbar = None
        if dom.body_load is not None:
            coefficients = dom.body_load.coefficients(ends)
        if dom.pbar is not None:
            pbar = np.asarray(dom.pbar(ends), dtype=float)
            if pbar.shape != ends.shape:
                raise ValueError(f"domain {d + 1}: pbar of {len(ends)} times has "
                                 f"shape {pbar.shape}, expected {ends.shape}")
        out.append((coefficients, pbar))
    return out


def stage2_sources(system: CoupledSystem, starts: np.ndarray, dt: float,
                   s_sub: int) -> list:
    """Per circuit, the generator sources at the substep end times of the
    steps that start at `starts`, shape (n, s_sub, dim)."""
    times = starts[:, None] + np.arange(1, s_sub + 1) * (dt / s_sub)
    out = []
    for m, spec in enumerate(system.circuits):
        sources = spec.s(times)
        if sources.shape != times.shape + (spec.dim,):
            raise ValueError(f"circuit {m + 1}: s(t) of times shaped {times.shape} "
                             f"has shape {sources.shape}, expected "
                             f"{times.shape + (spec.dim,)}")
        out.append(sources)
    return out


def _loads_of_step(loads, k: int) -> list:
    return [(None if c is None else c[k], None if p is None else p[k])
            for c, p in loads]


def step1(system: CoupledSystem, state: CoupledState, dt: float,
          explicit_pi: bool = False, loads=None, mass_products=None) -> CoupledState:
    """Stage 1: one implicit step of the flow/interface subsystem.

    Returns the intermediate state: velocities and pressures at the new
    time level, circuit node pressures updated, remaining circuit entries
    copied unchanged.  The state's clock still marks the interval start;
    stage 2 advances it.  `loads` is this step's slice of `stage1_loads`
    and `mass_products` the M v of the state's velocities, as `run` hands
    them over; without them the step evaluates its own.
    """
    if loads is None:
        loads = _loads_of_step(stage1_loads(system, step_times(state.t, dt, 1)[1:]), 0)
    return system.step1_solver(dt, explicit_pi).solve(state, loads, mass_products)


def step2(system: CoupledSystem, state: CoupledState, dt: float,
          s_sub: int, sources=None) -> CoupledState:
    """Stage 2: interior circuit dynamics; velocities and pressures are
    reused as-is (bitwise), only circuit states and the clock move.
    `sources` is this step's slice of `stage2_sources`, one (s_sub, dim)
    block per circuit, as `run` hands it over; without it the step
    evaluates its own."""
    if sources is None:
        sources = [s[0] for s in stage2_sources(
            system, step_times(state.t, dt, 1)[:-1], dt, s_sub)]
    ys = [step2_integrate(spec, y, state.t, s_sub, dt / s_sub, src)
          for spec, y, src in zip(system.circuits, state.ys, sources)]
    return CoupledState(state.velocities, state.pressures, ys,
                        state.interfaces, state.t + dt)


@dataclass
class StepRecord:
    """Everything observers may want after one global step."""
    step: int
    previous: CoupledState
    intermediate: CoupledState
    state: CoupledState
    mass_products: list     # M v of the new velocities, which stage 2 hands
                            # on unchanged: those of `intermediate` too


def run(system: CoupledSystem, state: CoupledState, config: StepConfig,
        n_steps: int, observers=(), explicit_pi: bool = False) -> CoupledState:
    """Apply step1 then step2 n_steps times, invoking observers after each
    step.  The time-only inputs of up to BLOCK_STEPS steps are evaluated
    at once, on the clock of the block's first state."""
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    dt, s_sub = config.dt, config.s_sub
    mass_products = None
    for first in range(0, n_steps, BLOCK_STEPS):
        n_block = min(BLOCK_STEPS, n_steps - first)
        times = step_times(state.t, dt, n_block)
        loads = stage1_loads(system, times[1:])
        sources = stage2_sources(system, times[:-1], dt, s_sub)
        for k in range(n_block):
            mid = step1(system, state, dt, explicit_pi, _loads_of_step(loads, k),
                        mass_products)
            new = step2(system, mid, dt, s_sub, [s[k] for s in sources])
            mass_products = system.mass_products(new.velocities)
            record = StepRecord(first + k, state, mid, new, mass_products)
            for obs in observers:
                obs(record)
            state = new
    return state
