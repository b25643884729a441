"""Shared construction helpers for the test suite."""

from __future__ import annotations

import numpy as np

from kwtorus import GridSpec, OneForm, ScalarField, SolveReport, laplacian, lee_pairing
from kwtorus.linsolve import random_smooth_field


def grid(*dims: int) -> GridSpec:
    return GridSpec(tuple(dims))


def field_from(spec: GridSpec, fn) -> ScalarField:
    """Field from a callable of the coordinate arrays."""
    return ScalarField(spec, np.broadcast_to(fn(*spec.coords()), spec.dims).copy())


def escaping_newton(prob, w0, **kwargs) -> SolveReport:
    """A newton_solve stand-in whose answer converges 100 above its start,
    above every supersolution, so every pair rejects it."""
    far = ScalarField(prob.spec, w0.values + 100.0)
    return SolveReport(far, "converged", [0.0], 0.0, "newton", iterations=1)


def divergence_free_form(spec: GridSpec, rng: np.random.Generator, amplitude: float = 0.3) -> OneForm:
    """Random exactly divergence-free one-form.

    Each component only depends on the other axes, so its own-axis
    derivative vanishes identically on the discrete grid too.  Rank 1
    forms must be constant.
    """
    comps = []
    for ax in range(spec.rank):
        const = amplitude * rng.uniform(-1.0, 1.0)
        vals = np.full(spec.dims, const)
        if spec.rank > 1:
            other = [a for a in range(spec.rank) if a != ax]
            osc = random_smooth_field(spec, rng, band=2, amplitude=amplitude)
            proj = osc.values.mean(axis=ax, keepdims=True)
            # averaging over the own axis removes every mode that varies
            # along it, leaving a field constant in direction ax
            vals = vals + np.broadcast_to(proj, spec.dims)
        comps.append(ScalarField(spec, vals.copy()))
    return OneForm(spec, tuple(comps))


def manufactured_negative_phi(
    spec: GridSpec,
    alpha: OneForm,
    c: float,
    rng: np.random.Generator,
    margin: float = 0.3,
) -> tuple[ScalarField, ScalarField]:
    """Random solvable instance: returns (w_star, phi) with phi < 0.

    Scales a random smooth w_star so that the linear part stays below
    margin * |c|, which keeps phi = (A w* + c) e^{-w*} strictly negative
    and the instance inside the certificate-friendly regime.
    """
    assert c < 0
    w = random_smooth_field(spec, rng, band=2, amplitude=1.0)
    linear = laplacian(w).values + lee_pairing(alpha, w).values
    top = float(np.max(np.abs(linear)))
    scale = margin * abs(c) / top if top > 0 else 1.0
    w = ScalarField(spec, w.values * scale)
    linear = laplacian(w).values + lee_pairing(alpha, w).values
    phi = ScalarField(spec, (linear + c) * np.exp(-w.values))
    assert float(np.max(phi.values)) < 0
    return w, phi
