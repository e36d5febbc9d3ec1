"""Helpers shared by the tests."""

from __future__ import annotations

import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from ghostsim import optics, validate
from ghostsim.correlator import amplitude, arm_energy, coincidence_statistics
from ghostsim.optics import ImpulseResponse


def scaled_arm(h: ImpulseResponse, c: complex) -> ImpulseResponse:
    """The kernel multiplied by a complex constant (gain/attenuation),
    with the grid hooks that h has."""
    c = complex(c)
    sample_in, apply_in = h._sample_in, h._apply_in
    return ImpulseResponse(
        evaluate=lambda x_out, x_in: c * h.evaluate(x_out, x_in),
        energy=abs(c) ** 2 * h.energy,
        _energy_in=lambda x_out, grid: abs(c) ** 2 * h.energy_in(x_out, grid),
        _sample_in=sample_in and (lambda x_out, grid: c * sample_in(x_out, grid)),
        _apply_in=apply_in and (lambda x_out, grid, v: c * apply_in(x_out, grid, v)),
    )


def applied_runs(patch, pupil, g, offset, scale, z=None) -> tuple:
    """(pupil.apply(g, offset, scale, z), runs): the value, and the list of
    real row blocks that ``apply`` handed to ``optics._apply_real``, one per
    run of offsets, which are exactly the rows the amplitude multiplies
    (none for a pupil that does not apply a real block).  z defaults to
    zeros; ``patch`` is ``monkeypatch``."""
    runs, apply_real = [], optics._apply_real

    def capture(rows, *args):
        def kept(o):
            runs.append(rows(o))
            return runs[-1]

        return apply_real(kept, *args)

    z = np.zeros(g.n_points, dtype=complex) if z is None else z
    with patch.context() as m:
        m.setattr(optics, "_apply_real", capture)
        value = pupil.apply(g, offset, scale, z)
    return value, runs


def pupil_block(patch, pupil, g, offset, scale) -> np.ndarray:
    """The real block that ``pupil.apply(g, offset, scale, z)`` multiplies
    into z, one row per offset: shape (size of offset, g.n_points)."""
    return np.concatenate(applied_runs(patch, pupil, g, offset, scale)[1])


def statistics_at(setup, h_r: ImpulseResponse, x_r: float) -> SimpleNamespace:
    """G2, <S^2>, Delta G2, SNR and the arm energies at one x_r and the
    setup's x_t with reference arm h_r, from the setup's I_t and the
    amplitude, arm_energy and coincidence_statistics steps that a scan
    composes."""
    x_t = setup.x_t
    a = amplitude(setup, h_r, x_r)
    i_t, i_r = setup.i_t, arm_energy(h_r, x_r, setup.gxp)
    g2, m2, dg2, snr = (float(c[0]) for c in coincidence_statistics(x_t, x_r, a, i_t, i_r))
    return SimpleNamespace(g2=g2, second_moment=m2, noise=dg2, snr=snr, i_t=i_t, i_r=i_r)


def corrupt_validation_states(patch, factor: float) -> None:
    """Multiply c_norm of every state the validation suite builds (the
    Gaussian sources as constructed, the matched states after
    normalization) by factor, keeping the extent: a correct suite must
    detect it.  ``patch`` is ``monkeypatch.setattr`` in a test, ``setattr``
    in a fresh process."""
    make, norm = validate.gaussian_wavefunction, validate.normalize

    def scale(state):
        return replace(state, c_norm=factor * state.c_norm)

    patch(validate, "gaussian_wavefunction", lambda *a: scale(make(*a)))
    patch(validate, "normalize", lambda *a: scale(norm(*a)))


_CORRUPT_VALIDATE = f"""
import sys
sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
from helpers import corrupt_validation_states
from ghostsim import cli
corrupt_validation_states(setattr, float(sys.argv[1]))
sys.exit(cli.main(["validate"]))
"""


def validate_with_corrupt_states(factor: float) -> subprocess.CompletedProcess:
    """``ghostsim validate`` in a fresh process with
    corrupt_validation_states(factor) injected."""
    return subprocess.run(
        [sys.executable, "-c", _CORRUPT_VALIDATE, repr(factor)],
        capture_output=True,
        text=True,
        timeout=300,
    )
