import numpy as np
import pytest

from stokes0d import (RectDomain, TagKind, build_rect_mesh, external,
                      interface, wall)


def channel_layout():
    return {"left": external(), "right": interface(1, 1, 1),
            "top": wall(), "bottom": wall()}


def test_smallest_mesh_counts():
    m = build_rect_mesh(RectDomain(1.0, 1.0), 1, 1, channel_layout())
    assert m.n_triangles == 2
    assert m.n_vertices == 4
    assert m.n_edges == 5
    assert m.n_vertices - m.n_edges + m.n_triangles == 1


def test_paper_mesh_counts():
    m = build_rect_mesh(RectDomain(10.0, 2.0), 100, 20, channel_layout())
    assert m.n_triangles == 4000
    assert m.n_vertices == 2121
    assert m.n_edges == 6120
    # quadratic scalar nodes
    assert m.n_vertices + m.n_edges == 8241


@pytest.mark.parametrize("nx,ny", [(1, 1), (3, 2), (7, 5), (12, 4)])
def test_euler_relation_and_areas(nx, ny):
    dom = RectDomain(10.0, 2.0)
    m = build_rect_mesh(dom, nx, ny, channel_layout())
    assert m.n_vertices - m.n_edges + m.n_triangles == 1
    areas = m.signed_areas()
    assert np.all(areas > 0)
    assert abs(areas.sum() - dom.length * dom.height) <= 1e-12 * dom.length * dom.height


def test_boundary_tags_cover_and_interface_length():
    dom = RectDomain(10.0, 2.0)
    m = build_rect_mesh(dom, 5, 4, channel_layout())
    # tagged boundary edges equal the full rectangle boundary
    n_boundary = 2 * 5 + 2 * 4
    assert len(m.boundary_edges) == n_boundary
    iface = m.edges_with_kind(TagKind.INTERFACE, (1, 1, 1))
    total = 0.0
    for eid in iface:
        a, b = m.edges[eid]
        total += np.linalg.norm(m.vertices[b] - m.vertices[a])
    assert abs(total - dom.height) <= 1e-12 * dom.height
    # interface edges sit on x = L
    for eid in iface:
        assert np.allclose(m.vertices[m.edges[eid]][:, 0], dom.length)


def test_deterministic_generation():
    a = build_rect_mesh(RectDomain(3.0, 1.0), 4, 3, channel_layout())
    b = build_rect_mesh(RectDomain(3.0, 1.0), 4, 3, channel_layout())
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.triangles, b.triangles)
    assert np.array_equal(a.edges, b.edges)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        build_rect_mesh(RectDomain(1.0, 1.0), 0, 1, channel_layout())
    layout = channel_layout()
    del layout["top"]
    with pytest.raises(ValueError, match="untagged"):
        build_rect_mesh(RectDomain(1.0, 1.0), 1, 1, layout)
    with pytest.raises(ValueError):
        RectDomain(-1.0, 1.0)
    bad = channel_layout()
    bad["left"] = interface(1, 1, 1)  # duplicate id on two sides
    with pytest.raises(ValueError, match="duplicate"):
        build_rect_mesh(RectDomain(1.0, 1.0), 1, 1, bad)


def _loop_topology(triangles):
    """The edge numbering as a loop over triangles and their local edges:
    ids in order of first appearance, looked up in a dict."""
    edge_index, edge_list = {}, []
    for tri in triangles.tolist():
        for a, b in ((tri[1], tri[2]), (tri[2], tri[0]), (tri[0], tri[1])):
            key = (min(a, b), max(a, b))
            if key not in edge_index:
                edge_index[key] = len(edge_list)
                edge_list.append(key)
    tri_edges = [[edge_index[min(t[a], t[b]), max(t[a], t[b])]
                  for a, b in ((1, 2), (2, 0), (0, 1))] for t in triangles.tolist()]
    return np.array(edge_list), np.array(tri_edges), edge_index


@pytest.mark.parametrize("nx,ny", [(1, 1), (3, 2), (7, 5), (25, 5), (100, 20)])
def test_topology_matches_the_loop(nx, ny):
    m = build_rect_mesh(RectDomain(10.0, 2.0), nx, ny, channel_layout())
    edges, tri_edges, edge_index = _loop_topology(m.triangles)
    assert np.array_equal(m.edges, edges)
    assert np.array_equal(m.triangle_edges(), tri_edges)
    # boundary tags sit on the edges the loop numbered for each side
    right = [edge_index[(j * (nx + 1) + nx, (j + 1) * (nx + 1) + nx)] for j in range(ny)]
    assert m.edges_with_kind(TagKind.INTERFACE, (1, 1, 1)) == sorted(right)
    assert len(m.edges_with_kind(TagKind.DIRICHLET_WALL)) == 2 * nx


def test_edge_ids_either_order_and_unknown_pairs():
    m = build_rect_mesh(RectDomain(1.0, 1.0), 2, 2, channel_layout())
    pairs = m.edges[::-1]
    assert np.array_equal(m.edge_ids(pairs), np.arange(m.n_edges)[::-1])
    assert np.array_equal(m.edge_ids(pairs[:, ::-1]), np.arange(m.n_edges)[::-1])
    with pytest.raises(KeyError):
        m.edge_ids([[0, 8]])        # opposite corners
