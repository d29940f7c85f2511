"""Physical problem description: couplings, Hamiltonian classes, time grid.

The chain is 1-D with open boundary, sites 0..N-1, nearest-neighbor bonds
(i, i+1). hbar is fixed to 1 throughout; couplings and times are
dimensionless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

# couplings, angles and R-gate parameters at or below this magnitude are absent
ZERO_TOL = 1e-12

# largest |angle| in rad that the tool reads, as a QASM rotation angle; beyond
# it a float keeps too little precision for the 1e-9 checks of the bridge solver
MAX_ANGLE = 1e6


class UnsupportedClassError(ValueError):
    """Couplings fall outside the six two-axis families of FAMILY_TABLE."""


class HamiltonianClass(Enum):
    """Which subset of {XX, YY, ZZ} couplings is active."""

    X = "X"
    Y = "Y"
    Z = "Z"
    XY = "XY"
    XZ = "XZ"
    YZ = "YZ"
    XYZ = "XYZ"

    @property
    def axes(self) -> str:
        return self.value.lower()

    @property
    def family(self) -> Family:
        """This class's row of FAMILY_TABLE; XYZ has none and raises
        UnsupportedClassError."""
        if self is HamiltonianClass.XYZ:
            raise UnsupportedClassError("three-axis couplings are outside the compressible families")
        return FAMILY_TABLE[self]


@dataclass(frozen=True)
class CouplingParams:
    """Exchange couplings (jx, jy, jz) of the nearest-neighbor model."""

    jx: float
    jy: float
    jz: float

    def __post_init__(self) -> None:
        for name in ("jx", "jy", "jz"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"coupling {name} must be finite, got {value!r}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.jx, self.jy, self.jz)


@dataclass(frozen=True)
class Angles3:
    """Per-bond rotation angles (theta_x, theta_y, theta_z) for one time step."""

    theta_x: float
    theta_y: float
    theta_z: float

    def __post_init__(self) -> None:
        for name in ("theta_x", "theta_y", "theta_z"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"angle {name} must be finite, got {value!r}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.theta_x, self.theta_y, self.theta_z)


class Family(NamedTuple):
    """How a two-axis coupling family sits in the R(gamma, delta) gate class.

    The family's two-spin propagator xyz_propagator(a) equals
    U R(gamma, delta) U^dag exactly, with U the conjugator named by
    conjugation, and gamma, delta the Angles3 components named by
    gamma_axis, delta_axis ("" feeds 0.0).
    """

    conjugation: str
    gamma_axis: str
    delta_axis: str

    def r_params(self, a: Angles3) -> tuple[float, float]:
        return tuple(
            getattr(a, f"theta_{axis}") if axis else 0.0
            for axis in (self.gamma_axis, self.delta_axis)
        )


FAMILY_TABLE = {
    HamiltonianClass.X: Family("none", "x", ""),
    HamiltonianClass.Y: Family("u1", "y", ""),
    HamiltonianClass.Z: Family("none", "", "z"),
    HamiltonianClass.XY: Family("u2", "x", "y"),
    HamiltonianClass.XZ: Family("none", "x", "z"),
    HamiltonianClass.YZ: Family("u1", "y", "z"),
}


@dataclass(frozen=True)
class TrotterPlan:
    """Uniform time grid: num_steps = round(t_final / dt), at least 1."""

    t_final: float
    dt: float
    num_steps: int = field(init=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        if not math.isfinite(self.t_final):
            raise ValueError(f"t_final must be finite, got {self.t_final!r}")
        ratio = self.t_final / self.dt
        steps = round(ratio) if math.isfinite(ratio) else ratio
        if steps < 1:
            raise ValueError(
                f"t_final/dt rounds to {steps} steps; need at least 1 "
                f"(t_final={self.t_final}, dt={self.dt})"
            )
        if steps == math.inf:
            raise ValueError(f"t_final/dt = {steps!r} steps is too large")
        object.__setattr__(self, "num_steps", steps)

    def times(self) -> list[float]:
        return [k * self.dt for k in range(self.num_steps + 1)]


def classify(j: CouplingParams) -> HamiltonianClass:
    """Map couplings to their Hamiltonian class, treating |J| <= ZERO_TOL as zero.

    All-zero couplings classify as X (identity dynamics) so the pipeline
    stays total.
    """
    name = "".join(
        axis
        for axis, value in zip("XYZ", j.as_tuple())
        if abs(value) > ZERO_TOL
    )
    return HamiltonianClass(name or "X")


def step_angles(j: CouplingParams, dt: float) -> Angles3:
    """Per-step rotation angles theta_alpha = J_alpha * dt (hbar = 1).

    The native circuits rotate by 2 theta, so |theta| must stay within
    MAX_ANGLE / 2 for the emitted QASM to read back.
    """
    angles = Angles3(j.jx * dt, j.jy * dt, j.jz * dt)
    for axis, theta in zip("xyz", angles.as_tuple()):
        if abs(theta) > MAX_ANGLE / 2:
            raise ValueError(
                f"step angle J.{axis}*dt = {theta!r} is beyond ±{MAX_ANGLE / 2:g} rad: its "
                f"native rotations, twice that, would exceed the ±{MAX_ANGLE:g} rad angle bound"
            )
    return angles
