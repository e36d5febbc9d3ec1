"""Helpers shared by the tests."""

from __future__ import annotations

from ghostsim.optics import ImpulseResponse


def scaled_arm(h: ImpulseResponse, c: complex) -> ImpulseResponse:
    """The kernel multiplied by a complex constant (gain/attenuation)."""
    c = complex(c)
    return ImpulseResponse(
        evaluate=lambda x_out, x_in: c * h.evaluate(x_out, x_in),
        energy=abs(c) ** 2 * h.energy,
        _sample_in=lambda x_out, grid: c * h.sample_in(x_out, grid),
        _sample_abs2_in=lambda x_out, grid: abs(c) ** 2 * h.sample_abs2_in(x_out, grid),
    )
