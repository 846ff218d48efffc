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
dt and its factors are reused for every step of a run.  A system keeps
the factors of its latest STEP1_SOLVERS step sizes and no matrix.  Its
unknowns are numbered in their elimination order, nested dissection of
each domain's quadratic node grid, once per system for every dt.

`run` is the only producer of a step's inputs.  Each state carries the mass
products M v of its velocities, formed once by the code that forms the
velocities: stage 1 for a new state, stage 2 hands them on with the
velocities.  The next stage-1 right-hand side and the observers' kinetic
energies and norms all read them from the state.  A state keeps Q_k and
pi_k in arrays in circuit order, and each array of a state is read-only from
where it is formed: none can change under the mass products formed from it.
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


def read_only(a: np.ndarray) -> np.ndarray:
    """`a`, marked read-only where it is formed as part of a state."""
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class CoupledState:
    """The coupled state at time t, immutable down to its arrays: each
    stage returns a new one, sharing only arrays it leaves as they are."""
    velocities: tuple
    pressures: tuple
    y: np.ndarray               # the circuit state
    flows: np.ndarray           # Q_k of each connection, in circuit order
    node_pressures: np.ndarray  # stage 1's pi_k of each connection
    t: float
    # M v of each velocity (CoupledSystem.mass_products); None only on the
    # states a run's period tracker keeps, `SimulateResult.last_period`
    mass_products: Optional[tuple]


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


# A system keeps the stage-1 solvers of this many step sizes (about 26 MB
# of factors each at 100x20): a stability sweep's three dts stay factored.
STEP1_SOLVERS = 3


class CoupledSystem:
    """Flow domains and one circuit, wired by the ids (l, m, k) of the
    circuit's connections: connection k attaches to flow domain l, and m is
    a label that the mesh tags and the connections share.

    Several circuits are one: stack their states, concatenate U and s and
    make A block-diagonal.  Stage 2 then gives each part's own result.

    `explicit_pi` makes the system a negative control: its stage 1 lags the
    pi coupling of the momentum equation at the previous step, on the
    right-hand side, which breaks the discrete energy balance and with it
    unconditional stability.
    """

    def __init__(self, domains, circuit, explicit_pi: bool = False):
        self.domains = list(domains)
        self.circuit = circuit
        self.explicit_pi = explicit_pi
        # (domain index, connection), in circuit order
        self.connections = [(c.interface_id[0] - 1, c) for c in circuit.connections]
        self.resistances = np.array([c.resistance for c in circuit.connections], dtype=float)
        self.pi_indices = np.array([c.pi_index for c in circuit.connections], dtype=np.intp)
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
        vels = tuple(read_only(np.zeros(d.space.n_velocity)) for d in self.domains)
        prs = tuple(read_only(np.zeros(d.space.n_pressure)) for d in self.domains)
        flows, node_pressures = read_only(np.zeros((2, len(self.connections))))
        return CoupledState(vels, prs, read_only(np.zeros(self.circuit.dim)), flows,
                            node_pressures, 0.0, self.mass_products(vels))

    def mass_products(self, velocities) -> tuple:
        """M v of each domain's velocity, read-only."""
        return tuple(read_only(sparse.apply_in_range(dom.ops.M.dot, v))
                     for dom, v in zip(self.domains, velocities))

    def interface_pressures(self, state) -> np.ndarray:
        """P_k = pi_k + R_k Q_k of a state's or a series row's connections."""
        return state.node_pressures + self.resistances * state.flows

    def step1_solver(self, dt: float) -> "_Step1Solver":
        """The factorized stage 1 for dt, from a cache of at most
        STEP1_SOLVERS solvers that drops the oldest one first."""
        solver = self._step1_cache.get(dt)
        if solver is None:
            if len(self._step1_cache) >= STEP1_SOLVERS:
                # dropped before the new one is built, so at most
                # STEP1_SOLVERS sets of factors are alive at once
                del self._step1_cache[next(iter(self._step1_cache))]
            solver = self._step1_cache[dt] = _Step1Solver(self, dt)
        return solver


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


def _interface_flux(system: CoupledSystem, d: int, conn) -> np.ndarray:
    """The flux functional of connection `conn` on domain d's free velocities."""
    dom = system.domains[d]
    return dom.ops.flux[conn.interface_id][dom.space.free]


def _step1_matrix(system: CoupledSystem, dt: float) -> sp.csr_matrix:
    """The stage-1 matrix for step size dt, in the numbering of
    `CoupledSystem.step1_layout`.  The control system leaves out the pi
    coupling of the momentum rows, which its solver lags."""
    layout = system.step1_layout
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
        phi = _interface_flux(system, d, conn)
        nz = np.nonzero(phi)[0]
        vel = layout.velocity[d][nz]
        R, C = conn.resistance, conn.capacitance
        qo, pio = layout.q[b], layout.pi[b]
        blocks.append((vel, np.full(len(nz), qo), R * phi[nz]))
        if not system.explicit_pi:
            blocks.append((vel, np.full(len(nz), pio), phi[nz]))
        blocks.append((np.full(len(nz), qo), vel, -phi[nz]))
        blocks.append(([qo, pio, pio], [qo, qo, pio], [1.0, -dt / C, 1.0]))
    rows, cols, vals = (np.concatenate(part) for part in zip(*blocks))
    return sp.csr_matrix((vals, (rows, cols)), shape=(layout.n, layout.n))


class _Step1Solver:
    """The factorized stage-1 system for one time step size, in the
    numbering of `CoupledSystem.step1_layout`.  `lagged` holds the
    control system's pi coupling, (momentum positions, phi, pi's index in
    y) per connection, which `solve` moves to the right-hand side; it is
    empty for the scheme itself.
    """

    def __init__(self, system: CoupledSystem, dt: float):
        self.system = system
        self.dt = dt
        self.layout = layout = system.step1_layout
        self.n = layout.n
        self.border = np.array([layout.q, layout.pi])   # gathered, so no state keeps x alive
        self.lagged = [(layout.velocity[d], _interface_flux(system, d, conn), conn.pi_index)
                       for d, conn in system.connections] if system.explicit_pi else []
        try:
            self.factorization = sparse.factorize(_step1_matrix(system, dt))
        except Exception as err:
            raise RuntimeError(
                f"stage-1 factorization failed for {self._describe()}: {err}") from err

    @property
    def matrix(self) -> sp.csr_matrix:
        """The stage-1 matrix, assembled anew on each read: the solver keeps
        only its factors."""
        return _step1_matrix(self.system, self.dt)

    def _describe(self) -> str:
        ifs = ", ".join(str(c.interface_id) for _, c in self.system.connections)
        return (f"{len(self.system.domains)} domain(s) with interfaces [{ifs}] "
                f"at dt={self.dt}")

    def solve(self, state: CoupledState, loads) -> CoupledState:
        """Stage 1 from `state`, with `loads` the step's slice of
        `stage1_loads` (each domain's load coefficients, or None).  The
        momentum rows take the state's (M v)[free], which is Mff v[free]
        bit for bit: csr_matvec sums each row in stored order, and a
        computed velocity is exactly 0 on the walls (the benchmarks'
        initial data, ~1e-32 there, stay below the sums' last bit)."""
        sys_, layout = self.system, self.layout
        rhs = np.zeros(self.n)
        for d, (dom, coefficients) in enumerate(zip(sys_.domains, loads)):
            free = dom.space.free
            r = (dom.rho / self.dt) * state.mass_products[d][free]
            if coefficients is not None:
                r += dom.body_load.vector(coefficients)[free]
            rhs[layout.velocity[d]] = r
        rhs[layout.pi] = state.y[sys_.pi_indices]
        for positions, phi, index in self.lagged:
            rhs[positions] -= state.y[index] * phi

        try:
            x = self.factorization.solve(rhs)
        except Exception as err:
            raise RuntimeError(f"stage-1 solve failed at t={state.t} for "
                               f"{self._describe()}: {err}") from err

        vels = []
        for d, dom in enumerate(sys_.domains):
            v = np.zeros(dom.space.n_velocity)
            v[dom.space.free] = x[layout.velocity[d]]
            vels.append(read_only(v))
        prs = tuple(read_only(x[positions]) for positions in layout.pressure)
        flows, node_pressures = read_only(x[self.border])
        y = state.y.copy()
        y[sys_.pi_indices] = node_pressures
        return CoupledState(tuple(vels), prs, read_only(y), flows, node_pressures,
                            state.t, sys_.mass_products(vels))


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


def step1(system: CoupledSystem, state: CoupledState, dt: float, loads) -> CoupledState:
    """Stage 1: one implicit step of the flow/interface subsystem.

    Returns the intermediate state: velocities and pressures at the new
    time level, the circuit's node pressures updated, its remaining entries
    copied unchanged.  The state's clock still marks the interval start;
    stage 2 advances it.  `loads` is this step's slice of `stage1_loads`,
    as `run` hands it over.
    """
    return system.step1_solver(dt).solve(state, loads)


def step2(system: CoupledSystem, state: CoupledState, dt: float,
          s_sub: int, sources) -> CoupledState:
    """Stage 2: interior circuit dynamics; velocities, their mass products
    and pressures are reused as-is (bitwise), only the circuit state and the
    clock move.  `sources` is this step's (s_sub, dim) slice of
    `stage2_sources`, as `run` hands it over."""
    y = step2_integrate(system.circuit, state.y, state.t, s_sub, dt / s_sub, sources)
    return CoupledState(state.velocities, state.pressures, read_only(y), state.flows,
                        state.node_pressures, state.t + dt, state.mass_products)


@dataclass
class StepRecord:
    """Everything observers may want after one global step."""
    step: int
    previous: CoupledState
    intermediate: CoupledState
    state: CoupledState


def run(system: CoupledSystem, state: CoupledState, config: StepConfig,
        n_steps: int, observers=()) -> CoupledState:
    """Apply step1 then step2 n_steps times, invoking observers after each
    step.  The time-only inputs of up to BLOCK_STEPS steps are evaluated at
    once, on the clock of the block's first state."""
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
            mid = step1(system, state, dt, step_loads)
            new = step2(system, mid, dt, s_sub, sources[k])
            record = StepRecord(first + k, state, mid, new)
            for obs in observers:
                obs(record)
            state = new
    return state
