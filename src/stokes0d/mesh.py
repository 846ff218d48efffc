"""Structured triangulations of rectangular channel domains.

Domains are rectangles (0, L) x (-H/2, H/2).  An nx-by-ny grid of cells is
split along the bottom-left to top-right diagonal, giving 2*nx*ny
counterclockwise triangles of uniform size.  Every boundary edge carries a
tag: solid wall (homogeneous Dirichlet), external pressure side (Neumann),
or a circuit interface identified by an (l, m, k) triple.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

SIDES = ("left", "right", "top", "bottom")


class TagKind(Enum):
    DIRICHLET_WALL = "wall"
    NEUMANN_EXTERNAL = "external"
    INTERFACE = "interface"


@dataclass(frozen=True)
class BoundaryTag:
    kind: TagKind
    interface_id: Optional[tuple] = None  # (l, m, k), interfaces only

    def __post_init__(self):
        if self.kind is TagKind.INTERFACE and self.interface_id is None:
            raise ValueError("interface tag requires an interface_id")
        if self.kind is not TagKind.INTERFACE and self.interface_id is not None:
            raise ValueError("interface_id only valid on interface tags")


def wall() -> BoundaryTag:
    return BoundaryTag(TagKind.DIRICHLET_WALL)


def external() -> BoundaryTag:
    return BoundaryTag(TagKind.NEUMANN_EXTERNAL)


def interface(l: int, m: int, k: int) -> BoundaryTag:
    return BoundaryTag(TagKind.INTERFACE, (l, m, k))


@dataclass(frozen=True)
class RectDomain:
    """Rectangle (0, length) x (-height/2, height/2), lengths in cm."""
    length: float
    height: float

    def __post_init__(self):
        if self.length <= 0 or self.height <= 0:
            raise ValueError("domain dimensions must be positive")


@dataclass
class TriangleMesh:
    """Conforming triangulation with tagged boundary edges.

    vertices      (V, 2) coordinates
    triangles     (T, 3) vertex indices, counterclockwise
    edges         (E, 2) vertex index pairs, sorted within each pair
    boundary_edges  map edge id -> BoundaryTag
    """
    domain: RectDomain
    vertices: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray
    boundary_edges: dict

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def edge_midpoints(self) -> np.ndarray:
        return 0.5 * (self.vertices[self.edges[:, 0]] + self.vertices[self.edges[:, 1]])

    def edge_ids(self, pairs) -> np.ndarray:
        """Ids of the edges joining the vertex pairs (..., 2), either order."""
        pairs = np.asarray(pairs)
        keys = _pair_keys(pairs, self.n_vertices)
        edge_keys = _pair_keys(self.edges, self.n_vertices)
        order = np.argsort(edge_keys)
        ids = order[np.minimum(np.searchsorted(edge_keys, keys, sorter=order),
                               len(order) - 1)]
        if not np.array_equal(edge_keys[ids], keys):
            raise KeyError("vertex pairs that are not edges of the mesh")
        return ids

    def triangle_edges(self) -> np.ndarray:
        """(T, 3) edge ids; local edge i is opposite local vertex i."""
        return self.edge_ids(self.triangles[:, _OPPOSITE])

    def signed_areas(self) -> np.ndarray:
        p = self.vertices[self.triangles]
        return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                      - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))

    def edges_with_kind(self, kind: TagKind, interface_id: tuple | None = None):
        """Boundary edge ids carrying the given tag kind (and id, if given)."""
        out = []
        for eid, tag in self.boundary_edges.items():
            if tag.kind is not kind:
                continue
            if interface_id is not None and tag.interface_id != interface_id:
                continue
            out.append(eid)
        return sorted(out)

    def interface_ids(self):
        seen = []
        for tag in self.boundary_edges.values():
            if tag.kind is TagKind.INTERFACE and tag.interface_id not in seen:
                seen.append(tag.interface_id)
        return sorted(seen)


# local vertex pairs of the edges opposite local vertices 0, 1, 2
_OPPOSITE = np.array([[1, 2], [2, 0], [0, 1]])


def _pair_keys(pairs: np.ndarray, n_vertices: int) -> np.ndarray:
    """One integer per unordered vertex pair of (..., 2) pairs."""
    a, b = pairs[..., 0], pairs[..., 1]
    return np.minimum(a, b) * n_vertices + np.maximum(a, b)


def build_rect_mesh(domain: RectDomain, nx: int, ny: int, layout: dict) -> TriangleMesh:
    """Triangulate the rectangle with 2*nx*ny elements and tag its boundary.

    `layout` maps each side name in {"left", "right", "top", "bottom"} to a
    BoundaryTag; all four sides must be present.
    """
    if nx < 1 or ny < 1:
        raise ValueError(f"subdivision counts must be >= 1, got nx={nx}, ny={ny}")
    missing = [s for s in SIDES if s not in layout]
    if missing:
        raise ValueError(f"boundary layout leaves sides untagged: {missing}")
    unknown = [s for s in layout if s not in SIDES]
    if unknown:
        raise ValueError(f"unknown sides in layout: {unknown}")

    L, H = domain.length, domain.height
    xs = np.linspace(0.0, L, nx + 1)
    ys = np.linspace(-0.5 * H, 0.5 * H, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    def vid(i, j):
        return j * (nx + 1) + i

    # cells row by row, each split along its v00 -> v11 diagonal into two
    # counterclockwise triangles
    j, i = np.divmod(np.arange(nx * ny), nx)
    v00, v10, v01, v11 = vid(i, j), vid(i + 1, j), vid(i, j + 1), vid(i + 1, j + 1)
    triangles = np.stack([np.column_stack([v00, v10, v11]),
                          np.column_stack([v00, v11, v01])], axis=1).reshape(-1, 3)

    # edges numbered in order of first appearance, triangle by triangle
    pairs = np.sort(triangles[:, _OPPOSITE], axis=-1).reshape(-1, 2)
    _, first = np.unique(_pair_keys(pairs, len(vertices)), return_index=True)
    edges = pairs[np.sort(first)]

    mesh = TriangleMesh(domain, vertices, triangles, edges, {})
    sides = {
        "left": (vid(0, np.arange(ny)), vid(0, np.arange(1, ny + 1))),
        "right": (vid(nx, np.arange(ny)), vid(nx, np.arange(1, ny + 1))),
        "top": (vid(np.arange(nx), ny), vid(np.arange(1, nx + 1), ny)),
        "bottom": (vid(np.arange(nx), 0), vid(np.arange(1, nx + 1), 0)),
    }
    for side, (a, b) in sides.items():
        for eid in mesh.edge_ids(np.column_stack([a, b])).tolist():
            mesh.boundary_edges[eid] = layout[side]

    # interface ids must be unique over the boundary pieces of this mesh
    ids = [tag.interface_id for tag in layout.values() if tag.kind is TagKind.INTERFACE]
    if len(ids) != len(set(ids)):
        raise ValueError(f"duplicate interface ids in layout: {ids}")

    return mesh

