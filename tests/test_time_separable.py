"""Every exact field is a sum of time coefficients times fixed profiles, and
`TimeSeparable` is the one evaluator of such sums: its point values, nodal
interpolants, assembled loads, initial states and error norms must match,
bit for bit, the field summed at the points before it is discretized."""
import dataclasses
from functools import partial

import numpy as np
import pytest

from stokes0d import (CoupledState, TimeSeparable, assemble_body_force, build_case,
                      error_norms, interpolate_pressure, interpolate_velocity)
from stokes0d import cases

KEYS = [(1, False), (1, True), (2, False), (3, False)]
TIMES = (0.0, 0.37, 1.9)
FIELDS = ("velocity", "pressure", "dv_dt", "force")


def separable_sum(coefficients, profiles):
    """sum_j coefficients[j] * profiles[j], summed in order."""
    (c, g), *rest = zip(coefficients, profiles)
    out = c * g
    for c, g in rest:
        out = out + c * g
    return out


def field_at(terms, points, t):
    """sum_j c_j(t) g_j(points), the field summed at the points: the oracle."""
    return separable_sum([c(t) for c, _ in terms],
                         [np.asarray(g(points)) for _, g in terms])


def nodal_velocity(space, terms, t):
    """Nodal interpolant of the summed field, x-components first."""
    vals = field_at(terms, space.nodes, t)
    return np.concatenate([vals[:, 0], vals[:, 1]])


def nodal_pressure(space, terms, t):
    return field_at(terms, space.mesh.vertices, t)


def oracle_error_norms(system, states, exact, dt):
    """`error_norms` with the exact fields interpolated from their sums at
    each state's time; float.hex of (err_v, err_p, err_y)."""
    sum_v = sum_p = sum_y = 0.0
    for state in states:
        t = state.t
        for l, (dom, dex) in enumerate(zip(system.domains, exact.domains)):
            uex = nodal_velocity(dom.space, dex.velocity, t)
            pex = nodal_pressure(dom.space, dex.pressure, t)
            du = state.velocities[l] - uex
            dp = state.pressures[l] - pex
            sum_v += float(du @ (dom.ops.M @ du)) / float(uex @ (dom.ops.M @ uex))
            sum_p += float(dp @ (dom.ops.Mp @ dp)) / float(pex @ (dom.ops.Mp @ pex))
        spec, yex = system.circuit, exact.y(t)
        Uex = np.sqrt(spec.U(yex, t))
        dy = np.sqrt(spec.U(state.y, t)) * state.y - Uex * yex
        sum_y += float(dy @ dy) / float((Uex * yex) @ (Uex * yex))
    return [float(np.sqrt(dt * s)).hex() for s in (sum_v, sum_p, sum_y)]


@pytest.fixture(scope="module")
def cases_20x4():
    return {key: build_case(key[0], nonlinear=key[1], nx=20, ny=4) for key in KEYS}


@pytest.mark.parametrize("key", KEYS)
def test_point_values_and_interpolants_match_the_summed_field(cases_20x4, key):
    case = cases_20x4[key]
    for dom, dex in zip(case.system.domains, case.exact.domains):
        space = dom.space
        # the velocity's time derivative is the first forcing term, ds(t) g1
        assert dex.dv_dt == dex.force[:1]
        for name in FIELDS:
            terms = getattr(dex, name)
            points = TimeSeparable(terms, lambda g: g(space.nodes))
            for t in TIMES:
                assert points(t).tobytes() == field_at(terms, space.nodes, t).tobytes()
        nodal = [(dex.velocity, interpolate_velocity, nodal_velocity),
                 (dex.dv_dt, interpolate_velocity, nodal_velocity),
                 (dex.pressure, interpolate_pressure, nodal_pressure)]
        for terms, interpolate, oracle in nodal:
            interpolant = TimeSeparable(terms, partial(interpolate, space))
            for t in TIMES:
                assert interpolant(t).tobytes() == oracle(space, terms, t).tobytes()


@pytest.mark.parametrize("key", KEYS)
def test_loads_match_the_sum_of_assembled_profiles(cases_20x4, key):
    # the body force, then the external side's traction -pbar(t) sigma:
    # F + (-p) sigma equals F - p sigma bitwise
    case = cases_20x4[key]
    rho = case.params.rho
    for dom, dex in zip(case.system.domains, case.exact.domains):
        vectors = [assemble_body_force(dom.space, g) for _, g in dex.force]
        for t in TIMES:
            want = separable_sum([rho * c(t) for c, _ in dex.force], vectors)
            if dex.pbar is not None:
                want = want - dex.pbar(t) * dom.ops.sigma
            assert dom.body_load(t).tobytes() == want.tobytes()


@pytest.mark.parametrize("key", KEYS)
def test_initial_state_matches_the_summed_field(cases_20x4, key):
    case = cases_20x4[key]
    state = case.initial_state()
    for l, (dom, dex) in enumerate(zip(case.system.domains, case.exact.domains)):
        assert state.velocities[l].tobytes() == \
            nodal_velocity(dom.space, dex.velocity, 0.0).tobytes()
        assert state.pressures[l].tobytes() == \
            nodal_pressure(dom.space, dex.pressure, 0.0).tobytes()
    assert state.y.tobytes() == case.exact.y(0.0).tobytes()


@pytest.mark.parametrize("key", KEYS)
def test_error_norms_match_the_summed_field(cases_20x4, key):
    case = cases_20x4[key]
    rng = np.random.default_rng(3)
    start = case.initial_state()
    states = [CoupledState([v + 1e-2 * rng.standard_normal(v.shape) for v in start.velocities],
                           [p + 1e-1 * rng.standard_normal(p.shape) for p in start.pressures],
                           1.01 * start.y, start.interfaces, t)
              for t in TIMES]
    got = error_norms(case.system, states, case.exact, 0.05)
    assert [x.hex() for x in vars(got).values()] == \
        oracle_error_norms(case.system, states, case.exact, 0.05)


def test_a_coefficient_that_does_not_broadcast_is_named():
    # error norms and loads evaluate coefficients on arrays of times through
    # the same check, so both name the coefficient that returns a scalar
    case = build_case(1, nx=8, ny=2)
    dex = case.exact.domains[0]
    terms = dex.velocity + ((lambda t: 0.5, dex.velocity[0][1]),)
    exact = dataclasses.replace(
        case.exact, domains=(dataclasses.replace(dex, velocity=terms),))
    states = [dataclasses.replace(case.initial_state(), t=t) for t in (0.0, 0.1)]
    message = r"time coefficient 1 of times shaped \(2,\) has shape \(\)"
    with pytest.raises(ValueError, match=message):
        error_norms(case.system, states, exact, 0.1)
    with pytest.raises(ValueError, match=message):
        dom = case.system.domains[0]
        cases.TimeSeparableLoad(dom.space, dom.ops, terms, None).coefficients(
            np.array([0.0, 0.1]))
