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

Both stages are driven by known functions of time only: the momentum
loads of stage 1 (body force and external-side traction, one
`TimeSeparable` per domain) at each step's end time, the generator
sources of stage 2 at each substep's end time.  A run evaluates each of
them once per block of up to BLOCK_STEPS steps, in one call on the block's
whole time grid, and hands every step its slice.

The stage-1 matrix does not depend on time, so it is factorized once per
(dt, variant) and reused for every step of a run.  Its unknowns are
numbered in their elimination order, nested dissection of each domain's
quadratic node grid, once per system for every dt and variant.

`run` is the only producer of a step's inputs.  It takes the mass product
M v of its start state from the caller, forms that of each new state once
per domain and hands it on in the step record: the next stage-1 right-hand
side and the observers' kinetic energies and norms all read it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.sparse as sp

from . import sparse
from .circuits import step2_integrate
from .fem import AssembledOperators, StokesSpace, TimeSeparable


@dataclass
class Domain:
    """One flow region with its discretization and forcing data."""
    space: StokesSpace
    ops: AssembledOperators
    rho: float
    mu: float
    # the stage-1 momentum load on full dofs: the rho-scaled body force and,
    # on an external side, the traction of the external pressure
    body_load: Optional[TimeSeparable] = None


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
    y: np.ndarray               # the circuit state
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
    """Flow domains and one circuit, wired by the ids (l, m, k) of the
    circuit's connections: connection k attaches to flow domain l, and m is
    a label that the mesh tags and the connections share.

    Several circuits are one: stack their states, concatenate U and s and
    make A block-diagonal.  Stage 2 then gives each part's own result.
    """

    def __init__(self, domains, circuit):
        self.domains = list(domains)
        self.circuit = circuit
        # (domain index, connection), in circuit order
        self.connections = [(c.interface_id[0] - 1, c) for c in circuit.connections]
        self._step1_cache = {}
        self._validate()

    def _validate(self):
        for d, c in self.connections:
            if not 0 <= d < len(self.domains):
                raise ValueError(f"connection {c.interface_id}: no flow domain {d + 1}")
        mesh_ids = {(d, iid) for d, dom in enumerate(self.domains)
                    for iid in dom.space.mesh.interface_ids()}
        bound_ids = [(d, c.interface_id) for d, c in self.connections]
        if len(bound_ids) != len(set(bound_ids)):
            raise ValueError("an interface is connected more than once")
        if set(bound_ids) != mesh_ids:
            raise ValueError(f"connections {sorted(set(bound_ids))} do not "
                             f"match tagged mesh interfaces {sorted(mesh_ids)}")

    @cached_property
    def step1_layout(self) -> "Step1Layout":
        """Positions of the stage-1 unknowns, numbered in their elimination
        order: each domain in turn by nested dissection of its node grid,
        a group's velocities before its pressures, the (Q, pi) pairs last."""
        velocity, pressure, off = [], [], 0
        for dom in self.domains:
            space = dom.space
            nf = len(space.free)
            node = np.concatenate([space.free % space.n_scalar,
                                   np.arange(space.n_pressure)])
            kind = np.repeat([0, 1], [nf, space.n_pressure])
            group = _dissection_keys(space.node_grid())[node]
            position = np.empty(len(node), dtype=np.intp)
            position[np.lexsort((node, kind, group))] = off + np.arange(len(node))
            velocity.append(position[:nf])
            pressure.append(position[nf:])
            off += len(node)
        q = off + 2 * np.arange(len(self.connections))
        return Step1Layout(velocity, pressure, q, q + 1, off + 2 * len(self.connections))

    def zero_state(self) -> CoupledState:
        vels = [np.zeros(d.space.n_velocity) for d in self.domains]
        prs = [np.zeros(d.space.n_pressure) for d in self.domains]
        ifs = {c.interface_id: InterfaceValues(0.0, 0.0, 0.0)
               for _, c in self.connections}
        return CoupledState(vels, prs, np.zeros(self.circuit.dim), ifs, 0.0)

    def mass_products(self, velocities) -> list:
        """M v of each domain's velocity."""
        return [dom.ops.M @ v for dom, v in zip(self.domains, velocities)]

    def step1_solver(self, dt: float, explicit_pi: bool = False) -> "_Step1Solver":
        key = (dt, explicit_pi)
        if key not in self._step1_cache:
            self._step1_cache[key] = _Step1Solver(self, dt, explicit_pi)
        return self._step1_cache[key]


@dataclass(frozen=True)
class Step1Layout:
    """Where each stage-1 unknown sits in the matrix and right-hand side."""
    velocity: list      # per domain, the position of each free velocity dof
    pressure: list      # per domain, the position of each pressure dof
    q: np.ndarray       # per connection, the position of Q_k
    pi: np.ndarray      # per connection, the position of pi_k
    n: int


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
    """Assembled and factorized stage-1 system for one time step size, in
    the numbering of `CoupledSystem.step1_layout`.  `explicit_pi` is a test-only
    variant that moves the pi coupling in the momentum equation to the
    right-hand side (lagged at the previous step), which breaks the
    discrete energy balance and with it unconditional stability.
    """

    def __init__(self, system: CoupledSystem, dt: float, explicit_pi: bool):
        self.system = system
        self.dt = dt
        self.explicit_pi = explicit_pi
        self.layout = layout = system.step1_layout
        self.n = layout.n

        blocks = []   # (rows, cols, values) of each block
        for d, dom in enumerate(system.domains):
            free = dom.space.free
            vel, prs = layout.velocity[d], layout.pressure[d]
            Mff, Kff = (A.tocsr()[free][:, free] for A in (dom.ops.M, dom.ops.K))
            Avv = ((dom.rho / dt) * Mff + dom.mu * Kff).tocoo()
            blocks.append((vel[Avv.row], vel[Avv.col], Avv.data))
            Df = dom.ops.D.tocsr()[:, free].tocoo()
            blocks.append((prs[Df.row], vel[Df.col], Df.data))      # continuity
            blocks.append((vel[Df.col], prs[Df.row], -Df.data))     # -D^T p
        for b, (d, conn) in enumerate(system.connections):
            dom = system.domains[d]
            phi = dom.ops.flux[conn.interface_id][dom.space.free]
            nz = np.nonzero(phi)[0]
            vel = layout.velocity[d][nz]
            R, C = conn.resistance, conn.capacitance
            qo, pio = layout.q[b], layout.pi[b]
            blocks.append((vel, np.full(len(nz), qo), R * phi[nz]))
            if not explicit_pi:
                blocks.append((vel, np.full(len(nz), pio), phi[nz]))
            blocks.append((np.full(len(nz), qo), vel, -phi[nz]))
            blocks.append(([qo, pio, pio], [qo, qo, pio], [1.0, -dt / C, 1.0]))

        rows, cols, vals = (np.concatenate(part) for part in zip(*blocks))
        self.matrix = sp.csr_matrix((vals, (rows, cols)), shape=(self.n, self.n))
        try:
            self.factorization = sparse.factorize(self.matrix)
        except Exception as err:
            raise RuntimeError(
                f"stage-1 factorization failed for {self._describe()}: {err}") from err

    def _describe(self) -> str:
        ifs = ", ".join(str(c.interface_id) for _, c in self.system.connections)
        return (f"{len(self.system.domains)} domain(s) with interfaces [{ifs}] "
                f"at dt={self.dt}")

    def solve(self, state: CoupledState, loads, mass_products) -> CoupledState:
        """Stage 1 from `state`, with `loads` the step's slice of
        `stage1_loads` (each domain's load coefficients, or None) and
        `mass_products` its velocities' M v.  The momentum rows take
        (M v)[free], which is Mff v[free] bit for bit: csr_matvec sums each
        row in stored order, and a computed velocity is exactly 0 on the
        walls (the benchmarks' initial data, ~1e-32 there, stay below the
        sums' last bit)."""
        sys_, layout = self.system, self.layout
        rhs = np.zeros(self.n)
        for d, (dom, coefficients) in enumerate(zip(sys_.domains, loads)):
            free = dom.space.free
            r = (dom.rho / self.dt) * mass_products[d][free]
            if coefficients is not None:
                r += dom.body_load.vector(coefficients)[free]
            rhs[layout.velocity[d]] = r
        for b, (d, conn) in enumerate(sys_.connections):
            pi_n = state.y[conn.pi_index]
            rhs[layout.pi[b]] = pi_n
            if self.explicit_pi:
                dom = sys_.domains[d]
                phi = dom.ops.flux[conn.interface_id][dom.space.free]
                rhs[layout.velocity[d]] -= pi_n * phi

        try:
            x = self.factorization.solve(rhs)
        except Exception as err:
            raise RuntimeError(f"stage-1 solve failed at t={state.t} for "
                               f"{self._describe()}: {err}") from err

        vels = []
        for d, dom in enumerate(sys_.domains):
            v = np.zeros(dom.space.n_velocity)
            v[dom.space.free] = x[layout.velocity[d]]
            vels.append(v)
        prs = [x[positions] for positions in layout.pressure]
        y = state.y.copy()
        interfaces = {}
        for b, (_, conn) in enumerate(sys_.connections):
            Q = float(x[layout.q[b]])
            pi = float(x[layout.pi[b]])
            y[conn.pi_index] = pi
            interfaces[conn.interface_id] = InterfaceValues(pi + conn.resistance * Q, Q, pi)
        return CoupledState(vels, prs, y, interfaces, state.t)


# A run evaluates its time-only inputs for at most this many steps at once,
# so a long run holds arrays of a bounded size.
BLOCK_STEPS = 2048


def step_times(t: float, dt: float, n_steps: int) -> np.ndarray:
    """The clock of n_steps steps from t: t, t + dt, (t + dt) + dt, ...
    (n_steps + 1 times), the same sums in the same order as each step's
    `state.t + dt`, so every time equals the state's clock bitwise."""
    return np.add.accumulate(np.concatenate(([t], np.full(n_steps, dt))))


def stage1_loads(system: CoupledSystem, ends: np.ndarray) -> list:
    """Per domain, the load coefficients at the n step end times `ends`,
    shape (n, terms), or None for a domain without a load."""
    return [None if dom.body_load is None else dom.body_load.coefficients(ends)
            for dom in system.domains]


def stage2_sources(system: CoupledSystem, starts: np.ndarray, dt: float,
                   s_sub: int) -> np.ndarray:
    """The circuit's generator sources at the substep end times of the
    steps that start at `starts`, shape (n, s_sub, dim)."""
    times = starts[:, None] + np.arange(1, s_sub + 1) * (dt / s_sub)
    spec = system.circuit
    sources = spec.s(times)
    if sources.shape != times.shape + (spec.dim,):
        raise ValueError(f"circuit s(t) of times shaped {times.shape} has shape "
                         f"{sources.shape}, expected {times.shape + (spec.dim,)}")
    return sources


def step1(system: CoupledSystem, state: CoupledState, dt: float,
          explicit_pi: bool, loads, mass_products) -> CoupledState:
    """Stage 1: one implicit step of the flow/interface subsystem.

    Returns the intermediate state: velocities and pressures at the new
    time level, the circuit's node pressures updated, its remaining entries
    copied unchanged.  The state's clock still marks the interval start;
    stage 2 advances it.  `loads` is this step's slice of `stage1_loads`
    and `mass_products` the M v of the state's velocities, as `run` hands
    them over.
    """
    return system.step1_solver(dt, explicit_pi).solve(state, loads, mass_products)


def step2(system: CoupledSystem, state: CoupledState, dt: float,
          s_sub: int, sources) -> CoupledState:
    """Stage 2: interior circuit dynamics; velocities and pressures are
    reused as-is (bitwise), only the circuit state and the clock move.
    `sources` is this step's (s_sub, dim) slice of `stage2_sources`, as
    `run` hands it over."""
    y = step2_integrate(system.circuit, state.y, state.t, s_sub, dt / s_sub, sources)
    return CoupledState(state.velocities, state.pressures, y,
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
        n_steps: int, mass_products, observers=(),
        explicit_pi: bool = False) -> CoupledState:
    """Apply step1 then step2 n_steps times, invoking observers after each
    step; `mass_products` is the start state's M v, as the caller holds it.
    The time-only inputs of up to BLOCK_STEPS steps are evaluated at once,
    on the clock of the block's first state."""
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    dt, s_sub = config.dt, config.s_sub
    for first in range(0, n_steps, BLOCK_STEPS):
        n_block = min(BLOCK_STEPS, n_steps - first)
        times = step_times(state.t, dt, n_block)
        loads = stage1_loads(system, times[1:])
        sources = stage2_sources(system, times[:-1], dt, s_sub)
        for k in range(n_block):
            step_loads = [None if c is None else c[k] for c in loads]
            mid = step1(system, state, dt, explicit_pi, step_loads, mass_products)
            new = step2(system, mid, dt, s_sub, sources[k])
            mass_products = system.mass_products(new.velocities)
            record = StepRecord(first + k, state, mid, new, mass_products)
            for obs in observers:
                obs(record)
            state = new
    return state
