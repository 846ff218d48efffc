"""Acceptance suite: the six headline verification criteria.

Each test prints one PASS/FAIL line (visible with pytest -s / -rA).  The
convergence sweeps run the three benchmarks on the 4000-element mesh at
dt = 0.01, 0.005, 0.001 and take a few minutes; the two criteria that need
them are marked `slow`, everything else is fast.
"""
import numpy as np
import pytest

from stokes0d import (StepConfig, build_case, build_rect_mesh, build_space, eval_B,
                      exact_for, run, verify_exact)
from stokes0d.circuits import capacitance_a, resistance_a
from stokes0d.fem import assemble_operators, boundary_flux_vector
from stokes0d.harness import convergence_study, stability_run
from stokes0d.mesh import RectDomain, external, interface, wall

DTS = (0.01, 0.005, 0.001)
SLOPE_BAND = (0.7, 1.3)


def _verdict(num, name, ok, detail):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def convergence_results():
    return {example: convergence_study(
                lambda example=example, nonlinear=nonlinear: build_case(
                    example, nonlinear=nonlinear, nx=100, ny=20),
                DTS, eps_per=1e-6, max_periods=10)
            for example, nonlinear in ((1, True), (2, False), (3, False))}


@pytest.fixture(scope="module")
def stability_results():
    case = build_case(1, nonlinear=False, nx=100, ny=20, zero_forcing=True)
    return [stability_run(case, dt, 200, s_sub=5) for dt in (0.1, 1.0, 10.0)]


@pytest.mark.slow
def test_criterion_1_first_order_convergence(convergence_results):
    ok = True
    details = []
    for example, study in convergence_results.items():
        errs = {w: [e for _, e in study.errors(w)] for w in ("v", "p", "y")}
        for w, vals in errs.items():
            decreasing = all(a > b for a, b in zip(vals, vals[1:]))
            slope = study.slopes[w]
            ok = ok and decreasing and SLOPE_BAND[0] <= slope <= SLOPE_BAND[1]
            details.append(f"ex{example}.{w}={slope:.2f}")
    _verdict(1, "first-order temporal convergence", ok, " ".join(details))


def test_criterion_2_unconditional_stability(stability_results):
    ok = True
    details = []
    for rep in stability_results:
        tol = 1e-12 * rep.e0
        ok = ok and rep.max_increase <= tol and rep.chain_violation <= tol
        details.append(f"dt={rep.dt}: dE_max={rep.max_increase:.1e}, "
                       f"chain={rep.chain_violation:.1e}")
    _verdict(2, "unconditional energy stability", ok, "; ".join(details))


def test_criterion_3_stage1_energy_identity(stability_results):
    worst = max(rep.max_identity_residual for rep in stability_results)
    _verdict(3, "stage-1 discrete energy identity", worst <= 1e-8,
             f"max relative residual {worst:.2e}")


def test_criterion_4_oracle_self_consistency():
    ok = True
    details = []
    for example, nonlinear in ((1, False), (1, True), (2, False), (3, False)):
        case = build_case(example, nonlinear=nonlinear, nx=25, ny=5)
        times = np.linspace(0.0, case.tau, 100, endpoint=False)
        rep = verify_exact(case.system, case.exact, times)
        worst = max(rep.circuit_residual, rep.coupling_residual, rep.flux_residual)
        ok = ok and worst <= 1e-10
        details.append(f"ex{example}{'n' if nonlinear else ''}={worst:.1e}")
    # nonlinear volume formula back-substitution
    p = exact_for(1, nonlinear=True).params
    ex = exact_for(1, nonlinear=True)
    vol = 0.0
    for t in np.linspace(0.0, ex.tau, 100, endpoint=False):
        pi, w = ex.y(t)
        dpi = ex.dy_dt(t)[0]
        Q = ex.interfaces[(1, 1, 1)].Q(t)
        rhs = capacitance_a(w, p) * (pi - resistance_a(pi, p) * (Q - p.C11_1 * dpi))
        vol = max(vol, abs(w - rhs) / max(abs(w), 1.0))
    ok = ok and vol <= 1e-10
    details.append(f"volume={vol:.1e}")
    _verdict(4, "oracle self-consistency", ok, " ".join(details))


@pytest.mark.slow
def test_criterion_5_flow_peaks_attenuated(convergence_results):
    peaks = {dt: row_peaks[(1, 1, 1)] for dt, _, _, row_peaks in convergence_results[1].rows}
    q_coarse, p_coarse = peaks[0.01]["Q"], peaks[0.01]["P"]
    q_fine = peaks[0.001]["Q"]
    ok = q_coarse > p_coarse and q_fine <= q_coarse / 3.0
    _verdict(5, "flow-rate peaks attenuate and recover", ok,
             f"dt=0.01: Q={q_coarse:.3f} vs P={p_coarse:.3f}; "
             f"dt=0.001: Q={q_fine:.3f}")


def test_criterion_6_structural_invariants():
    layout = {"left": external(), "right": interface(1, 1, 1),
              "top": wall(), "bottom": wall()}
    mesh = build_rect_mesh(RectDomain(10.0, 2.0), 20, 4, layout)
    space = build_space(mesh)
    ops = assemble_operators(space)
    ok = True
    details = []

    # discrete divergence theorem
    rng = np.random.default_rng(0)
    all_flux = boundary_flux_vector(space, list(mesh.boundary_edges))
    u = rng.standard_normal(space.n_velocity)
    div_gap = abs(np.ones(space.n_pressure) @ (ops.D @ u) - all_flux @ u)
    ok = ok and div_gap <= 1e-12 * max(1.0, abs(all_flux @ u))
    details.append(f"divthm={div_gap:.1e}")

    # symmetry and definiteness
    sym = max(np.abs(ops.M - ops.M.T).max(), np.abs(ops.K - ops.K.T).max())
    ok = ok and sym <= 1e-14 * max(np.abs(ops.M).max(), np.abs(ops.K).max())
    spd = all(v @ (ops.M @ v) > 0 and v @ (ops.K @ v) >= -1e-12
              for v in rng.standard_normal((20, space.n_velocity)))
    ok = ok and spd
    details.append(f"sym={sym:.1e}")

    # dissipation tensor of the constant-coefficient benchmark circuit
    case = build_case(1, nonlinear=False, nx=20, ny=4)
    B = eval_B(case.system.circuit, np.zeros(2), 0.0, 1e-6 * case.tau)
    b_ok = (np.allclose(B, [[0.1, -10.0], [-10.0, 2000.0]], rtol=1e-12)
            and np.all(np.linalg.eigvalsh(0.5 * (B + B.T)) > 0))
    ok = ok and b_ok
    details.append(f"B={'ok' if b_ok else 'bad'}")

    # stage-1 freezes the volume state, stage-2 the velocity (bitwise)
    records = []
    run(case.system, case.initial_state(), StepConfig(0.01, 5), 1,
        observers=(records.append,))
    state, mid, new = records[0].previous, records[0].intermediate, records[0].state
    frozen = mid.y[1] == state.y[1]
    bitwise = all(a.tobytes() == b.tobytes()
                  for a, b in zip(new.velocities, mid.velocities))
    ok = ok and frozen and bitwise
    details.append(f"freeze={'ok' if frozen and bitwise else 'bad'}")

    _verdict(6, "structural invariants", ok, " ".join(details))
