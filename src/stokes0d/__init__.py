"""Coupled 2D Stokes / lumped-circuit flows with energy-stable splitting.

The package discretizes incompressible Stokes regions with Taylor-Hood
P2/P1 elements, couples them to lumped hydraulic circuits through resistive
interfaces, and advances the coupled system with a two-stage operator
splitting whose discrete energy balance makes it unconditionally stable.
Exact-solution oracles for three benchmark configurations drive the
verification harness (stability sweeps, periodicity detection, normalized
error norms and temporal convergence rates).
"""

from .params import Example1Params, Example2Params, Example3Params, params_for
from .mesh import (RectDomain, TriangleMesh, BoundaryTag, TagKind,
                   build_rect_mesh, wall, external, interface)
from .fem import (StokesSpace, AssembledOperators, build_space,
                  assemble_operators, assemble_body_force, TimeSeparable,
                  interpolate_velocity, interpolate_pressure)
from .sparse import factorize, SingularMatrixError
from .circuits import (Connection, CircuitSpec, eval_B, step2_integrate,
                       example1_circuit, example2_circuit, example3_circuit)
from .exact import (ExactSolutionSet, example1_exact, example2_exact,
                    example3_exact, exact_for, verify_exact)
from .splitting import CoupledSystem, CoupledState, Domain, StepConfig, StepRecord, run
from .analysis import (EnergyReport, ErrorReport, energy_report,
                       step1_energy_residual, error_norms, convergence_rate)
from .cases import Case, build_case, DEFAULT_SUBSTEPS
from .harness import (run_to_periodicity, stability_run, convergence_study,
                      peak_errors, periods_per_tau, SimulateResult,
                      StabilityReport, ConvergenceResult)

__version__ = "0.1.0"
