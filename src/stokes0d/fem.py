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


def _scalar_dofs(mesh: TriangleMesh):
    """(T, 6) per-element scalar quadratic node indices."""
    return np.hstack([mesh.triangles, mesh.n_vertices + mesh.triangle_edges()])


def _scatter(rows, cols, vals, shape):
    return sp.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=shape).tocsr()


def assemble_operators(space: StokesSpace) -> AssembledOperators:
    ns, nv, npr = space.n_scalar, space.n_velocity, space.n_pressure
    mesh = space.mesh
    p, J, detJ, invJT = _element_geometry(mesh)
    sdof = _scalar_dofs(mesh)

    # mass: affine map, so the element matrix is detJ times a reference block
    q4, w4 = triangle_rule(4)
    phi4 = p2_basis(q4)
    Mref = np.einsum("q,iq,jq->ij", w4, phi4, phi4)
    Me = detJ[:, None, None] * Mref

    q2, w2 = triangle_rule(2)
    dphi2 = p2_grads(q2)
    # physical gradients: (T, 6, 2, nq)
    G = np.einsum("tab,ibq->tiaq", invJT, dphi2)
    Ke = np.einsum("tiaq,tjaq,q->tij", G, G, w2) * detJ[:, None, None]

    psi2 = p1_basis(q2)
    Dex = np.einsum("rq,tiq,q->tri", psi2, G[:, :, 0, :], w2) * detJ[:, None, None]
    Dey = np.einsum("rq,tiq,q->tri", psi2, G[:, :, 1, :], w2) * detJ[:, None, None]

    psi_ref = np.einsum("q,iq,jq->ij", w2, psi2, psi2)
    Mpe = detJ[:, None, None] * psi_ref

    ir = np.repeat(sdof, 6, axis=1)
    ic = np.tile(sdof, (1, 6))
    Ms = _scatter(ir, ic, Me, (ns, ns))
    Ks = _scatter(ir, ic, Ke, (ns, ns))
    M = sp.block_diag((Ms, Ms), format="csr")
    K = sp.block_diag((Ks, Ks), format="csr")

    pr = np.repeat(mesh.triangles, 6, axis=1)
    pcx = np.tile(sdof, (1, 3))
    D = (_scatter(pr, pcx, Dex, (npr, nv))
         + _scatter(pr, ns + pcx, Dey, (npr, nv)))

    qr = np.repeat(mesh.triangles, 3, axis=1)
    qc = np.tile(mesh.triangles, (1, 3))
    Mp = _scatter(qr, qc, Mpe, (npr, npr))

    flux = {}
    for iid in mesh.interface_ids():
        eids = mesh.edges_with_kind(TagKind.INTERFACE, iid)
        flux[iid] = boundary_flux_vector(space, eids)
    sigma_edges = mesh.edges_with_kind(TagKind.NEUMANN_EXTERNAL)
    sigma = boundary_flux_vector(space, sigma_edges)

    return AssembledOperators(M, K, D, Mp, flux, sigma)


def boundary_flux_vector(space: StokesSpace, edge_ids) -> np.ndarray:
    """Functional u -> integral of u . n over the given boundary edges,
    with n the outward normal (rectangle domains: points away from center).
    """
    mesh = space.mesh
    out = np.zeros(space.n_velocity)
    if len(edge_ids) == 0:
        return out
    sq, sw = edge_rule(3)
    # quadratic trace on an edge in the local coordinate s
    Na = (1.0 - sq) * (1.0 - 2.0 * sq)
    Nb = sq * (2.0 * sq - 1.0)
    Nm = 4.0 * sq * (1.0 - sq)
    wts = np.array([Na @ sw, Nb @ sw, Nm @ sw])
    center = np.array([0.5 * mesh.domain.length, 0.0])
    for eid in edge_ids:
        a, b = mesh.edges[eid]
        pa, pb = mesh.vertices[a], mesh.vertices[b]
        tvec = pb - pa
        length = float(np.hypot(*tvec))
        n = np.array([tvec[1], -tvec[0]]) / length
        if np.dot(0.5 * (pa + pb) - center, n) < 0:
            n = -n
        nodes = np.array([a, b, mesh.n_vertices + eid])
        for c in range(2):
            out[space.vdof(nodes, c)] += n[c] * wts * length
    return out


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
    Xq = p[:, None, 0, :] + np.einsum("tab,qb->tqa", J, q)
    fv = np.asarray(f(Xq.reshape(-1, 2)), dtype=float).reshape(len(p), len(q), 2)
    sdof = _scalar_dofs(space.mesh)
    out = np.zeros(space.n_velocity)
    for c in range(2):
        fe = np.einsum("tq,iq,q->ti", fv[:, :, c], phi, w) * detJ[:, None]
        np.add.at(out, space.vdof(sdof, c), fe)
    return out


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
