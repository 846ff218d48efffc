"""Interface pressure and flow rate against the exact solution.

Runs the first benchmark (nonlinear circuit elements) to numerical
periodicity and compares the interface series over the final period with
the closed-form solution.  The pressure trace is accurate already at the
coarsest time step, while the flow-rate peaks come out clipped and sharpen
as dt shrinks; rerun with --dt 0.001 to see them recover.
"""
import argparse

from stokes0d import build_case, peak_errors, run_to_periodicity

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("--dt", type=float, default=0.01)
parser.add_argument("--nx", type=int, default=50)
parser.add_argument("--ny", type=int, default=10)
parser.add_argument("--csv", type=str, default=None,
                    help="optionally dump the final period to a CSV file")
args = parser.parse_args()

case = build_case(1, nonlinear=True, nx=args.nx, ny=args.ny)
res = run_to_periodicity(case, args.dt, eps_per=1e-6, max_periods=10,
                         collect_series=False)
print(f"dt={args.dt}: periodic after {res.periods} periods "
      f"(gap {res.final_gap:.2e})")

iface = case.exact.interfaces[(1, 1, 1)]
states = res.last_period
# the benchmark's one connection: P = pi + R Q, Q and pi of each state
values = [(float(case.system.interface_pressures(s)[0]), float(s.flows[0]),
           float(s.node_pressures[0])) for s in states]
stride = max(1, len(states) // 16)
print(f"\n{'t':>6} {'P computed':>12} {'P exact':>12} {'Q computed':>12} {'Q exact':>12}")
for state, (P, Q, _) in list(zip(states, values))[::stride]:
    print(f"{state.t:6.2f} {P:12.4f} {float(iface.P(state.t)):12.4f} "
          f"{Q:12.4f} {float(iface.Q(state.t)):12.4f}")

pk = peak_errors(res, (1, 1, 1))
print(f"\nrelative peak errors over the final period: "
      f"P {pk['P']:.4f}, Q {pk['Q']:.4f}")
print(f"errors over the final period: v {res.errors.err_v:.3e}, "
      f"p {res.errors.err_p:.3e}, y {res.errors.err_y:.3e}")

if args.csv:
    with open(args.csv, "w") as f:
        f.write("t,P,P_exact,Q,Q_exact,pi\n")
        for state, (P, Q, pi) in zip(states, values):
            f.write(f"{state.t},{P},{float(iface.P(state.t))},"
                    f"{Q},{float(iface.Q(state.t))},{pi}\n")
    print(f"final period written to {args.csv}")
