"""Taylor-Hood P2/P1 discretization on tagged triangle meshes.

Velocity lives in continuous piecewise quadratics (scalar nodes = vertices
plus edge midpoints, two components), pressure in continuous piecewise
linears on the vertices.  The assembled operators are:

  M   velocity mass,           integral of phi_i . phi_j
  K   velocity stiffness,      integral of grad phi_i : grad phi_j
  D   divergence,              rows q: integral of psi_q div(phi_i)
  Mp  pressure mass,           integral of psi_q psi_r
  flux[k]   interface flux functionals, entries integral_{S_k} phi_i . n
  sigma     external-side load, entries integral_{Sigma} phi_i . n

K uses the full velocity gradient, not the symmetric part: the boundary
data is a pseudo-traction (-p I + mu grad v) n, and channel solutions with
a flat profile satisfy it only in this form.  Dirichlet walls are enforced
by eliminating the constrained rows/columns (wall data is homogeneous).
The functions map functions of space to vectors; time enters only through
`TimeSeparable`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .mesh import TriangleMesh, TagKind
from .quadrature import triangle_rule, edge_rule

# local P2 node order: three vertices, then the midpoint opposite each vertex


def p2_basis(points: np.ndarray):
    """P2 shape functions at reference points (n,2); returns (6, n)."""
    xi, eta = points[:, 0], points[:, 1]
    lam = np.stack([1.0 - xi - eta, xi, eta])
    phi = np.empty((6, len(points)))
    for i in range(3):
        phi[i] = lam[i] * (2.0 * lam[i] - 1.0)
    for i, (a, b) in enumerate(((1, 2), (2, 0), (0, 1))):
        phi[3 + i] = 4.0 * lam[a] * lam[b]
    return phi


def p2_grads(points: np.ndarray):
    """Reference gradients of the P2 basis; returns (6, 2, n)."""
    xi, eta = points[:, 0], points[:, 1]
    lam = np.stack([1.0 - xi - eta, xi, eta])
    dlam = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    g = np.empty((6, 2, len(points)))
    for i in range(3):
        g[i] = dlam[i][:, None] * (4.0 * lam[i] - 1.0)
    for i, (a, b) in enumerate(((1, 2), (2, 0), (0, 1))):
        g[3 + i] = 4.0 * (dlam[a][:, None] * lam[b] + dlam[b][:, None] * lam[a])
    return g


def p1_basis(points: np.ndarray):
    xi, eta = points[:, 0], points[:, 1]
    return np.stack([1.0 - xi - eta, xi, eta])


@dataclass
class StokesSpace:
    """Degree-of-freedom maps for one mesh.

    Scalar quadratic nodes are numbered vertices first, then edge midpoints;
    the velocity x-component occupies dofs [0, n_scalar), the y-component
    [n_scalar, 2 n_scalar).  Pressure dofs coincide with vertex numbers.
    """
    mesh: TriangleMesh
    n_scalar: int
    nodes: np.ndarray          # (n_scalar, 2) quadratic node coordinates
    constrained: np.ndarray    # velocity dofs on Dirichlet walls, sorted
    free: np.ndarray

    @property
    def n_velocity(self) -> int:
        return 2 * self.n_scalar

    @property
    def n_pressure(self) -> int:
        return self.mesh.n_vertices

    def vdof(self, node, component):
        return component * self.n_scalar + np.asarray(node)

    @cached_property
    def _element_dofs(self) -> np.ndarray:
        """(T, 6) per-element scalar quadratic node indices, formed once for
        the operators and every load."""
        return np.hstack([self.mesh.triangles,
                          self.mesh.n_vertices + self.mesh.triangle_edges()])

    def node_grid(self) -> np.ndarray:
        """(n_scalar, 2) index of each quadratic node on the grid of half
        cells: the vertex in column i and row j of the distinct vertex
        abscissae and ordinates sits at (2i, 2j), an edge midpoint halfway
        between its end vertices."""
        g = np.column_stack([np.unique(c, return_inverse=True)[1].ravel()
                             for c in self.mesh.vertices.T])
        e = self.mesh.edges
        return np.vstack([2 * g, g[e[:, 0]] + g[e[:, 1]]])


def build_space(mesh: TriangleMesh) -> StokesSpace:
    ns = mesh.n_vertices + mesh.n_edges
    nodes = np.vstack([mesh.vertices, mesh.edge_midpoints()])
    wall_nodes = set()
    for eid in mesh.edges_with_kind(TagKind.DIRICHLET_WALL):
        a, b = mesh.edges[eid]
        wall_nodes.update((int(a), int(b), mesh.n_vertices + eid))
    wn = np.array(sorted(wall_nodes), dtype=np.int64)
    constrained = np.concatenate([wn, ns + wn]) if len(wn) else np.empty(0, dtype=np.int64)
    mask = np.ones(2 * ns, dtype=bool)
    mask[constrained] = False
    free = np.nonzero(mask)[0]
    return StokesSpace(mesh, ns, nodes, constrained, free)


@dataclass
class AssembledOperators:
    M: sp.csr_matrix
    K: sp.csr_matrix
    D: sp.csr_matrix            # (n_pressure, n_velocity)
    Mp: sp.csr_matrix
    flux: dict                  # interface_id -> (n_velocity,) functional
    sigma: np.ndarray           # aggregated Neumann-side functional


def _element_geometry(mesh: TriangleMesh):
    p = mesh.vertices[mesh.triangles]          # (T, 3, 2)
    J = np.empty((len(p), 2, 2))
    J[:, :, 0] = p[:, 1] - p[:, 0]
    J[:, :, 1] = p[:, 2] - p[:, 0]
    detJ = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    invJT = np.empty_like(J)
    invJT[:, 0, 0] = J[:, 1, 1]
    invJT[:, 0, 1] = -J[:, 1, 0]
    invJT[:, 1, 0] = -J[:, 0, 1]
    invJT[:, 1, 1] = J[:, 0, 0]
    invJT /= detJ[:, None, None]
    return p, J, detJ, invJT


def _scatter(rows, cols, vals, shape):
    return sp.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=shape).tocsr()


def _contract(A, B):
    """sum_b A[..., b] B[..., b], by broadcasting: the bits of a two-operand
    einsum over a length-2 axis, without its loop."""
    return A[..., 0] * B[..., 0] + A[..., 1] * B[..., 1]


def _two_blocks(A: sp.csr_matrix) -> sp.csr_matrix:
    """[[A, 0], [0, A]] from A's own arrays: sp.block_diag's CSR, bit for bit."""
    n = A.shape[0]
    arrays = (A.data, A.data), (A.indices, A.indices + n), (A.indptr, A.indptr[1:] + A.nnz)
    return sp.csr_matrix(tuple(map(np.concatenate, arrays)), shape=(2 * n, 2 * n))


def assemble_operators(space: StokesSpace) -> AssembledOperators:
    ns, nv, npr = space.n_scalar, space.n_velocity, space.n_pressure
    mesh = space.mesh
    p, J, detJ, invJT = _element_geometry(mesh)
    sdof = space._element_dofs

    # mass: affine map, so the element matrix is detJ times a reference block
    q4, w4 = triangle_rule(4)
    phi4 = p2_basis(q4)
    Mref = np.einsum("q,iq,jq->ij", w4, phi4, phi4)
    Me = detJ[:, None, None] * Mref

    q2, w2 = triangle_rule(2)
    dphi2 = p2_grads(q2)
    # physical gradients: (T, 6, 2, nq)
    G = _contract(invJT[:, None, :, None, :], np.moveaxis(dphi2, 1, -1)[None, :, None])
    Ke = np.einsum("tiaq,tjaq,q->tij", G, G, w2) * detJ[:, None, None]

    psi2 = p1_basis(q2)
    Dex = np.einsum("rq,tiq,q->tri", psi2, G[:, :, 0, :], w2) * detJ[:, None, None]
    Dey = np.einsum("rq,tiq,q->tri", psi2, G[:, :, 1, :], w2) * detJ[:, None, None]

    psi_ref = np.einsum("q,iq,jq->ij", w2, psi2, psi2)
    Mpe = detJ[:, None, None] * psi_ref

    ir = np.repeat(sdof, 6, axis=1)
    ic = np.tile(sdof, (1, 6))
    M = _two_blocks(_scatter(ir, ic, Me, (ns, ns)))
    K = _two_blocks(_scatter(ir, ic, Ke, (ns, ns)))

    pr = np.repeat(mesh.triangles, 6, axis=1)
    pcx = np.tile(sdof, (1, 3))
    D = (_scatter(pr, pcx, Dex, (npr, nv))
         + _scatter(pr, ns + pcx, Dey, (npr, nv)))

    qr = np.repeat(mesh.triangles, 3, axis=1)
    qc = np.tile(mesh.triangles, (1, 3))
    Mp = _scatter(qr, qc, Mpe, (npr, npr))

    return AssembledOperators(M, K, D, Mp, **_boundary_functionals(space))


def _boundary_functionals(space: StokesSpace) -> dict:
    """The operators' fields that depend on the boundary tags, not on the
    geometry: each interface's flux functional, by interface id, and the
    external side's sigma."""
    mesh = space.mesh
    return {"flux": {iid: boundary_flux_vector(space, mesh.edges_with_kind(TagKind.INTERFACE, iid))
                     for iid in mesh.interface_ids()},
            "sigma": boundary_flux_vector(space, mesh.edges_with_kind(TagKind.NEUMANN_EXTERNAL))}


def _edge_trace_weights():
    """Integrals over [0, 1] of the quadratic trace's end and midpoint shape
    functions, by the 3-point Gauss rule."""
    s, w = edge_rule(3)
    return np.array([N @ w for N in ((1.0 - s) * (1.0 - 2.0 * s), s * (2.0 * s - 1.0),
                                     4.0 * s * (1.0 - s))])


_EDGE_TRACE_WEIGHTS = _edge_trace_weights()


def boundary_flux_vector(space: StokesSpace, edge_ids) -> np.ndarray:
    """Functional u -> integral of u . n over the given boundary edges,
    with n the outward normal (rectangle domains: points away from center).
    Each dof sums its edges' terms in the order of `edge_ids`.
    """
    if len(edge_ids) == 0:
        return np.zeros(space.n_velocity)    # bincount would return integers
    mesh = space.mesh
    eids = np.asarray(edge_ids, dtype=np.intp)
    a, b = mesh.edges[eids].T
    pa, pb = mesh.vertices[a], mesh.vertices[b]
    tvec = pb - pa
    length = np.hypot(tvec[:, 0], tvec[:, 1])
    n = np.column_stack([tvec[:, 1], -tvec[:, 0]]) / length[:, None]
    center = np.array([0.5 * mesh.domain.length, 0.0])
    n[_contract(0.5 * (pa + pb) - center, n) < 0] *= -1.0
    nodes = np.column_stack([a, b, mesh.n_vertices + eids])
    # (edges, component, node) terms, summed per dof in edge order
    terms = n[:, :, None] * _EDGE_TRACE_WEIGHTS * length[:, None, None]
    dofs = space.vdof(nodes[:, None, :], np.arange(2)[None, :, None])
    return np.bincount(dofs.ravel(), terms.ravel(), minlength=space.n_velocity)


def assemble_body_force(space: StokesSpace, f) -> np.ndarray:
    """Load vector with entries integral of f(x) . phi_i.

    `f(points)` must accept an (N, 2) array of locations and return an
    (N, 2) array of force values.  The degree-6 rule keeps the quadrature
    error of the transcendental forcing terms far below the discretization
    error.
    """
    q, w = triangle_rule(6)
    p, J, detJ, _ = _element_geometry(space.mesh)
    phi = p2_basis(q)
    # physical quadrature points, (T, nq, 2)
    Xq = p[:, None, 0, :] + _contract(J[:, None], q[None, :, None])
    fv = np.asarray(f(Xq.reshape(-1, 2)), dtype=float).reshape(len(p), len(q), 2)
    sdof = space._element_dofs
    fe = [np.einsum("tq,iq,q->ti", fv[:, :, c], phi, w) * detJ[:, None] for c in range(2)]
    return np.bincount(space.vdof(sdof, np.arange(2)[:, None, None]).ravel(),
                       np.ravel(fe), minlength=space.n_velocity)


class TimeSeparable:
    """A field sum_j c_j(t) g_j of time coefficients and profiles of space,
    each g_j discretized once (point values, nodal interpolant or assembled
    load), so a time's value costs a few axpys.  Each c_j broadcasts: on an
    array of times it returns an array of their shape, each entry equal
    bitwise to c_j of that time alone, so many times take one call.
    """

    def __init__(self, terms, discretize):
        self.coeffs = [c for c, _ in terms]
        self.vectors = [discretize(g) for _, g in terms]

    def coefficients(self, t) -> np.ndarray:
        """c_j(t) of every term, shape np.shape(t) + (terms,)."""
        out = np.empty(np.shape(t) + (len(self.coeffs),))
        for j, c in enumerate(self.coeffs):
            value = np.asarray(c(t), dtype=float)
            if value.shape != np.shape(t):
                raise ValueError(f"time coefficient {j} of times shaped {np.shape(t)} "
                                 f"has shape {value.shape}")
            out[..., j] = value
        return out

    def vector(self, coefficients) -> np.ndarray:
        """sum_j coefficients[j] g_j, discretized, for one time's coefficients,
        summed in order, so values agree bitwise wherever the same
        coefficients and profile values come from.  Coefficients of shape
        (terms, k, 1), a column of k times per term, give one row per time,
        each with the bits of that time alone."""
        (c, g), *rest = zip(coefficients, self.vectors)
        out = c * g
        for c, g in rest:
            out = out + c * g
        return out

    def __call__(self, t: float) -> np.ndarray:
        return self.vector(self.coefficients(t))


def interpolate_velocity(space: StokesSpace, g) -> np.ndarray:
    """Nodal interpolant of g(points) -> (N, 2) at vertices and midpoints."""
    vals = np.asarray(g(space.nodes), dtype=float)
    out = np.empty(space.n_velocity)
    out[:space.n_scalar] = vals[:, 0]
    out[space.n_scalar:] = vals[:, 1]
    return out


def interpolate_pressure(space: StokesSpace, g) -> np.ndarray:
    return np.asarray(g(space.mesh.vertices), dtype=float)
