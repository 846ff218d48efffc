"""The set-up's whole-array forms keep the bits of the formulas they replace.

The reference functions below are the straightforward forms of the same
arrays: two-operand einsums for the physical gradients and quadrature
points, sp.block_diag for the two velocity components, np.add.at for the
load scatter, one boundary edge at a time for the functionals, and the
stage-1 velocity block from separately sliced mass and stiffness.  Every
operator, load vector and stage-1 matrix must equal them byte for byte.
"""
import functools

import numpy as np
import pytest
import scipy.sparse as sp

from stokes0d import assemble_operators, build_case
from stokes0d.fem import (AssembledOperators, _element_geometry, p1_basis, p2_basis,
                          p2_grads)
from stokes0d.mesh import TagKind
from stokes0d.quadrature import edge_rule, triangle_rule
from stokes0d.splitting import CoupledSystem, _step1_matrix

CASES = ((1, False), (1, True), (2, False), (3, False))
SIZES = ((8, 2), (20, 4))


def ref_scalar_dofs(mesh):
    return np.hstack([mesh.triangles, mesh.n_vertices + mesh.triangle_edges()])


def ref_scatter(rows, cols, vals, shape):
    return sp.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=shape).tocsr()


def ref_boundary_flux_vector(space, edge_ids):
    mesh = space.mesh
    out = np.zeros(space.n_velocity)
    if len(edge_ids) == 0:
        return out
    sq, sw = edge_rule(3)
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


def ref_assemble_operators(space):
    ns, nv, npr = space.n_scalar, space.n_velocity, space.n_pressure
    mesh = space.mesh
    p, J, detJ, invJT = _element_geometry(mesh)
    sdof = ref_scalar_dofs(mesh)
    q4, w4 = triangle_rule(4)
    phi4 = p2_basis(q4)
    Me = detJ[:, None, None] * np.einsum("q,iq,jq->ij", w4, phi4, phi4)
    q2, w2 = triangle_rule(2)
    G = np.einsum("tab,ibq->tiaq", invJT, p2_grads(q2))
    Ke = np.einsum("tiaq,tjaq,q->tij", G, G, w2) * detJ[:, None, None]
    psi2 = p1_basis(q2)
    Dex = np.einsum("rq,tiq,q->tri", psi2, G[:, :, 0, :], w2) * detJ[:, None, None]
    Dey = np.einsum("rq,tiq,q->tri", psi2, G[:, :, 1, :], w2) * detJ[:, None, None]
    Mpe = detJ[:, None, None] * np.einsum("q,iq,jq->ij", w2, psi2, psi2)
    ir, ic = np.repeat(sdof, 6, axis=1), np.tile(sdof, (1, 6))
    Ms = ref_scatter(ir, ic, Me, (ns, ns))
    Ks = ref_scatter(ir, ic, Ke, (ns, ns))
    pr, pcx = np.repeat(mesh.triangles, 6, axis=1), np.tile(sdof, (1, 3))
    D = ref_scatter(pr, pcx, Dex, (npr, nv)) + ref_scatter(pr, ns + pcx, Dey, (npr, nv))
    qr, qc = np.repeat(mesh.triangles, 3, axis=1), np.tile(mesh.triangles, (1, 3))
    flux = {iid: ref_boundary_flux_vector(space, mesh.edges_with_kind(TagKind.INTERFACE, iid))
            for iid in mesh.interface_ids()}
    sigma = ref_boundary_flux_vector(space, mesh.edges_with_kind(TagKind.NEUMANN_EXTERNAL))
    return AssembledOperators(sp.block_diag((Ms, Ms), format="csr"),
                              sp.block_diag((Ks, Ks), format="csr"), D,
                              ref_scatter(qr, qc, Mpe, (npr, npr)), flux, sigma)


def ref_assemble_body_force(space, f):
    q, w = triangle_rule(6)
    p, J, detJ, _ = _element_geometry(space.mesh)
    phi = p2_basis(q)
    Xq = p[:, None, 0, :] + np.einsum("tab,qb->tqa", J, q)
    fv = np.asarray(f(Xq.reshape(-1, 2)), dtype=float).reshape(len(p), len(q), 2)
    sdof = ref_scalar_dofs(space.mesh)
    out = np.zeros(space.n_velocity)
    for c in range(2):
        fe = np.einsum("tq,iq,q->ti", fv[:, :, c], phi, w) * detJ[:, None]
        np.add.at(out, space.vdof(sdof, c), fe)
    return out


def ref_step1_matrix(system, dt, ops):
    """The stage-1 matrix of `system` with each domain's operators taken
    from `ops`, its velocity block from the sliced Mff and Kff."""
    layout = system.step1_layout
    blocks = []
    for d, (dom, o) in enumerate(zip(system.domains, ops)):
        free = dom.space.free
        vel, prs = layout.velocity[d], layout.pressure[d]
        Mff, Kff = (A.tocsr()[free][:, free] for A in (o.M, o.K))
        Avv = ((dom.rho / dt) * Mff + dom.mu * Kff).tocoo()
        blocks.append((vel[Avv.row], vel[Avv.col], Avv.data))
        Df = o.D.tocsr()[:, free].tocoo()
        blocks.append((prs[Df.row], vel[Df.col], Df.data))
        blocks.append((vel[Df.col], prs[Df.row], -Df.data))
    for b, (d, conn) in enumerate(system.connections):
        phi = ops[d].flux[conn.interface_id][system.domains[d].space.free]
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


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


def assert_same_csr(A, B):
    assert A.format == B.format == "csr" and A.shape == B.shape
    for field in ("indptr", "indices", "data"):
        assert_same_bits(getattr(A, field), getattr(B, field))


def assert_same_operators(got, ref):
    for name in ("M", "K", "D", "Mp"):
        assert_same_csr(getattr(got, name), getattr(ref, name))
    assert list(got.flux) == list(ref.flux)
    for iid in ref.flux:
        assert_same_bits(got.flux[iid], ref.flux[iid])
    assert_same_bits(got.sigma, ref.sigma)


@functools.cache
def case_and_reference(example, nonlinear, nx, ny):
    case = build_case(example, nonlinear=nonlinear, nx=nx, ny=ny)
    return case, [ref_assemble_operators(d.space) for d in case.system.domains]


@pytest.mark.parametrize("nx, ny", SIZES)
@pytest.mark.parametrize("example, nonlinear", CASES)
def test_operators_and_loads_keep_their_bits(example, nonlinear, nx, ny):
    case, refs = case_and_reference(example, nonlinear, nx, ny)
    for dom, dex, ref in zip(case.system.domains, case.exact.domains, refs):
        assert_same_operators(dom.ops, ref)
        loads = [ref_assemble_body_force(dom.space, g) for _, g in dex.force]
        if dex.pbar is not None:
            loads.append(ref.sigma)
        assert len(dom.body_load.vectors) == len(loads)
        for got, want in zip(dom.body_load.vectors, loads):
            assert_same_bits(got, want)


@pytest.mark.parametrize("explicit_pi", [False, True])
@pytest.mark.parametrize("dt", [1e-3, 0.01, 1.0, 100.0])
@pytest.mark.parametrize("nx, ny", SIZES)
@pytest.mark.parametrize("example, nonlinear", CASES)
def test_stage1_matrix_keeps_its_bits(example, nonlinear, nx, ny, dt, explicit_pi):
    case, refs = case_and_reference(example, nonlinear, nx, ny)
    system = CoupledSystem(case.system.domains, case.system.circuit, explicit_pi)
    assert_same_csr(_step1_matrix(system, dt), ref_step1_matrix(system, dt, refs))


def test_benchmark2_channels_share_their_operators():
    # the two channels differ only in their side tags: one set of matrices
    # serves both, and each keeps its own boundary functionals
    first, second = build_case(2, nx=20, ny=4).system.domains
    for name in ("M", "K", "D", "Mp"):
        assert getattr(second.ops, name) is getattr(first.ops, name)
    assert list(first.ops.flux) == [(1, 1, 1)] and list(second.ops.flux) == [(2, 1, 1)]
    fresh = assemble_operators(second.space)
    assert_same_operators(second.ops, fresh)
    assert_same_operators(second.ops, ref_assemble_operators(second.space))
