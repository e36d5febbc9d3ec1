"""Helpers shared by the tests."""

from __future__ import annotations

from types import SimpleNamespace

from ghostsim.correlator import amplitude, arm_energy, coincidence_statistics
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


def statistics_at(setup, h_r: ImpulseResponse, x_t: float, x_r: float) -> SimpleNamespace:
    """G2, <S^2>, Delta G2, SNR and the arm energies at one (x_t, x_r) with
    reference arm h_r, from the amplitude, arm_energy and
    coincidence_statistics steps that a scan composes."""
    a = amplitude(setup, h_r, x_t, x_r)
    i_t, i_r = arm_energy(setup.h_t, x_t, setup.gx), arm_energy(h_r, x_r, setup.gxp)
    g2, m2, dg2, snr = (float(c[0]) for c in coincidence_statistics(x_t, x_r, a, i_t, i_r))
    return SimpleNamespace(g2=g2, second_moment=m2, noise=dg2, snr=snr, i_t=i_t, i_r=i_r)
