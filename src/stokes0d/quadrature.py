"""Quadrature rules on the reference triangle and the unit interval.

The reference triangle has vertices (0,0), (1,0), (0,1); rule weights sum to
the reference area 1/2.  Symmetric rules of degree 2, 4 and 6 cover every
polynomial integrand that appears in P2/P1 assembly; the degree-6 rule also
integrates the transcendental body forces.
"""
from __future__ import annotations

import numpy as np

# Symmetric triangle rules, barycentric orbit data: (weight, orbit point).
# Orbits: "s2" two equal coordinates (3 points), "s1" all distinct (6 points).  Weights are area-normalized (sum to 1).
_TRI_RULES = {
    2: [
        ("s2", 1.0 / 3.0, 0.5),
    ],
    4: [
        ("s2", 0.223381589678011, 0.445948490915965),
        ("s2", 0.109951743655322, 0.091576213509771),
    ],
    6: [
        ("s2", 0.116786275726379, 0.249286745170910),
        ("s2", 0.050844906370207, 0.063089014491502),
        ("s1", 0.082851075618374, (0.310352451033785, 0.636502499121399)),
    ],
}


def _orbit_points(kind, value):
    if kind == "s2":
        a = value
        b = 1.0 - 2.0 * a
        return [(a, a, b), (a, b, a), (b, a, a)]
    if kind == "s1":
        a, b = value
        c = 1.0 - a - b
        return [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]
    raise ValueError(f"unknown orbit kind {kind!r}")


def triangle_rule(degree: int):
    """Symmetric rule exact for polynomials up to `degree` on the reference
    triangle.  Returns (points (n,2) in (xi,eta), weights (n,) summing to 1/2).
    """
    try:
        orbits = _TRI_RULES[degree]
    except KeyError:
        raise ValueError(f"no symmetric triangle rule of degree {degree}; "
                         f"available: {sorted(_TRI_RULES)}") from None
    pts, wts = [], []
    for kind, w, val in orbits:
        for lam in _orbit_points(kind, val):
            pts.append((lam[1], lam[2]))  # lambda1 = xi, lambda2 = eta
            wts.append(w)
    return np.asarray(pts), 0.5 * np.asarray(wts)


def edge_rule(npts: int = 3):
    """Gauss-Legendre rule on [0, 1]; 3 points are exact to degree 5."""
    x, w = np.polynomial.legendre.leggauss(npts)
    return 0.5 * (x + 1.0), 0.5 * w
