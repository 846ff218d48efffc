"""Parameter sets for the three benchmark configurations (cgs units).

Defaults reproduce the published benchmark values.  The examples live in a
two-dimensional setting, so volumes and flow rates are per unit of length
and resistances/capacitances scale accordingly (resistance g cm^-3 s^-1,
capacitance g^-1 cm^3 s^2, inductance g cm^-3).
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class _CommonParams:
    H: float = 2.0            # channel height, cm
    L: float = 10.0           # channel length, cm
    rho: float = 1.0          # density, g cm^-3
    mu: float = 1.0           # dynamic viscosity, g cm^-1 s^-1
    V0: float = 2.0           # centerline speed scale, cm s^-1
    omega: float = np.pi      # angular frequency, s^-1
    k: float = 0.1            # pressure decay rate, cm^-1
    s0: float = 2.0           # mean of the periodic drive
    s1: float = 1.0           # amplitude of the periodic drive

    PHYSICAL = ("H", "L", "rho", "mu", "omega")     # divided by, so positive
    CIRCUIT_ELEMENTS = ()     # names of the resistances, capacitances, inductances

    def __post_init__(self):
        bad = [f"{n}={getattr(self, n)}" for n in self.PHYSICAL
               if not getattr(self, n) > 0]
        if bad:
            raise ValueError(f"parameters must be positive: {', '.join(bad)}")

    @property
    def tau(self) -> float:
        return 2.0 * np.pi / self.omega

    def replace(self, **overrides):
        unknown = [k for k in overrides if k not in {f.name for f in dataclasses.fields(self)}]
        if unknown:
            raise ValueError(f"unknown parameter overrides: {unknown}")
        values = {k: float(v) for k, v in overrides.items()}
        non_finite = [k for k, v in values.items() if not np.isfinite(v)]
        if non_finite:
            raise ValueError(f"non-finite parameter overrides: {non_finite}")
        return dataclasses.replace(self, **values)

    def check_circuit_elements(self) -> None:
        """Reject zero or negative resistances, capacitances and inductances,
        naming each (non-finite values are `replace`'s to reject)."""
        bad = [f"{n}={getattr(self, n)}" for n in self.CIRCUIT_ELEMENTS
               if getattr(self, n) <= 0]
        if bad:
            raise ValueError(f"circuit elements must be positive: {', '.join(bad)}")


@dataclass(frozen=True)
class Example1Params(_CommonParams):
    R11_1: float = 10.0       # interface resistance
    Rbar_a: float = 10.0      # baseline of the variable resistance
    R_b: float = 10.0
    alpha0: float = 10.0      # variable-resistance law coefficients
    alpha1: float = 1.0
    alpha2: float = 0.001
    C11_1: float = 0.001      # interface capacitance
    Cbar_a: float = 0.01      # baseline of the variable capacitance
    gamma1: float = 1.0       # variable-capacitance law coefficient
    a0: float = 150.0         # pressure profile a0 + a1 exp(-k x)
    a1: float = 1000.0

    PHYSICAL = _CommonParams.PHYSICAL + ("alpha1",)  # the law takes ln alpha1
    CIRCUIT_ELEMENTS = ("R11_1", "C11_1", "Rbar_a", "Cbar_a", "R_b")


@dataclass(frozen=True)
class Example2Params(_CommonParams):
    R11_1: float = 10.0
    R_a: float = 10.0
    R21_1: float = 10.0
    R_b: float = 10.0
    C11_1: float = 0.001
    C21_1: float = 0.001
    L_a: float = 0.003        # inductance
    a01: float = 150.0        # domain-1 pressure profile
    a11: float = 1000.0
    a02: float = 75.0         # domain-2 pressure profile
    a12: float = 500.0

    CIRCUIT_ELEMENTS = ("R11_1", "R21_1", "C11_1", "C21_1", "R_a", "R_b", "L_a")


@dataclass(frozen=True)
class Example3Params(_CommonParams):
    R11_1: float = 10.0
    R11_2: float = 50.0
    R_a: float = 10.0
    R_b: float = 10.0
    R_c: float = 70.0
    L_c: float = 0.003
    C11_1: float = 0.001
    C11_2: float = 0.001
    a0: float = 150.0
    a1: float = 1000.0

    CIRCUIT_ELEMENTS = ("R11_1", "R11_2", "C11_1", "C11_2", "R_a", "R_b", "R_c", "L_c")


def params_for(example: int):
    if example == 1:
        return Example1Params()
    if example == 2:
        return Example2Params()
    if example == 3:
        return Example3Params()
    raise ValueError(f"example must be 1, 2 or 3, got {example}")
