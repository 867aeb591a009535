"""Rotary-wing UAV propulsion power.

Four additive terms: blade profile, induced, parasite, and vertical flight.
The induced term divides by the squared horizontal speed as the source model
prints it (not the usual square-root form), guarded near hover; the vertical
term is signed, so descent credits energy unless clamp_descent is enabled.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import require_finite


@dataclass(frozen=True)
class PowerModelParams:
    """Rotorcraft constants; defaults give 97.3 W in level flight at 50 km/h."""

    p0_hover_blade: float = 79.86  # W
    p1_hover_induced: float = 88.63  # W
    omega: float = 300.0  # rad/s
    rotor_radius: float = 0.4  # m
    v0_induced: float = 4.03  # m/s
    d0_drag_ratio: float = 0.3
    air_density: float = 1.225  # kg/m^3
    rotor_solidity: float = 0.05
    rotor_disc_area: float = 0.503  # m^2
    weight: float = 20.0  # N
    v_h_epsilon: float = 0.1  # m/s, induced-power singularity guard
    clamp_descent: bool = False  # floor the vertical term at zero

    def __post_init__(self):
        require_finite(self)
        for name in (
            "p0_hover_blade", "p1_hover_induced", "omega", "rotor_radius",
            "v0_induced", "d0_drag_ratio", "air_density", "rotor_solidity",
            "rotor_disc_area", "weight", "v_h_epsilon",
        ):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


def propulsion_power(velocity: tuple[float, float, float], params: PowerModelParams) -> float:
    """Instantaneous flight power in watts for a 3-D velocity (v_x, v_y, v_z)."""
    v_x, v_y, v_z = velocity
    vh2 = v_x * v_x + v_y * v_y
    blade = params.p0_hover_blade * (
        1.0 + 3.0 * vh2 / (params.omega**2 * params.rotor_radius**2)
    )
    induced = params.p1_hover_induced * params.v0_induced / max(vh2, params.v_h_epsilon**2)
    parasite = (
        0.5
        * params.d0_drag_ratio
        * params.air_density
        * params.rotor_solidity
        * params.rotor_disc_area
        * vh2**1.5
    )
    vertical = params.weight * v_z
    if params.clamp_descent:
        vertical = max(0.0, vertical)
    return blade + induced + parasite + vertical
