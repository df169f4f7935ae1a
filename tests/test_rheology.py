"""Density family: values, derivatives, rescaling, limits, admissibility."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visco_pt.errors import InfeasibleState, ValidationError
from visco_pt.rheology import MaterialModel

FD_STEP = 1e-6


def central_difference(fn, x, h=FD_STEP):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def test_builtin_density_values():
    model = MaterialModel()
    assert model.w_el(0.5) == 0.125
    assert model.w_vi(0.5) == 0.125
    assert model.psi(0.5) == 0.125
    quartic = MaterialModel(a4=1.0)
    assert quartic.w_el(1.0) == 0.75


def test_psi_closed_form_spot_value():
    model = MaterialModel()
    r = -0.352941
    assert model.psi(r) == 0.5 * r * r
    assert abs(model.psi(r) - 0.0622837) < 1e-6


def test_psi_homogeneity_exact():
    model = MaterialModel()
    assert model.psi(6.0) == 9.0 * model.psi(2.0)
    cubic = MaterialModel(p_psi=3.0)
    assert cubic.psi(4.0) == 8.0 * cubic.psi(2.0)


def test_derivatives_match_central_differences():
    model = MaterialModel(c_e=1.3, a4=0.75, c_v=0.8, d_v=1.1, p_psi=3.0)
    for s in (-0.8, -0.2, 0.3, 1.1):
        assert model.dw_el(s) == pytest.approx(
            central_difference(model.w_el, s), rel=1e-8
        )
        assert model.dw_vi(s) == pytest.approx(
            central_difference(model.w_vi, s), rel=1e-8
        )
        assert model.dpsi(s) == pytest.approx(
            central_difference(model.psi, s), rel=1e-7
        )


def test_viscous_constraint_radius():
    model = MaterialModel(k_radius=0.5)
    assert model.w_vi(0.5) == 0.125
    with pytest.raises(InfeasibleState):
        model.w_vi(0.6)
    with pytest.raises(InfeasibleState):
        model.dw_vi(-0.7)
    with pytest.raises(InfeasibleState):
        model.w_vi(np.array([0.1, 0.9]))


def test_parameter_validation():
    with pytest.raises(ValidationError):
        MaterialModel(c_e=0.0)
    with pytest.raises(ValidationError):
        MaterialModel(a4=-1.0)
    with pytest.raises(ValidationError):
        MaterialModel(p_psi=1.5)
    with pytest.raises(ValidationError):
        MaterialModel(d_v=-2.0)


def test_rescaled_density_quartic_value():
    model = MaterialModel(a4=1.0)
    # eps^-2 * w_el(eps * 1) = 1/2 + (eps^2/4) exactly for the quartic term.
    assert model.rescaled_density("el", 0.1, 1.0) == pytest.approx(
        0.5 + 0.25 * 0.01, abs=1e-15
    )
    grid = np.linspace(-1.0, 1.0, 11)
    vals = model.rescaled_density("el", 0.1, grid)
    expected = 0.5 * grid**2 + 0.25 * 0.01 * grid**4
    np.testing.assert_allclose(vals, expected, rtol=0.0, atol=1e-15)


def test_rescaled_density_quadratic_is_eps_independent():
    model = MaterialModel()
    grid = np.linspace(-1.0, 1.0, 11)
    for which in ("el", "vi", "psi"):
        for eps in (0.5, 0.1, 0.02):
            np.testing.assert_allclose(
                model.rescaled_density(which, eps, grid),
                0.5 * grid**2,
                rtol=0.0,
                atol=1e-14,
            )


def test_rescaled_density_constraint_uses_unrescaled_argument():
    model = MaterialModel(k_radius=0.5)
    assert model.rescaled_density("vi", 0.1, 1.0) == pytest.approx(0.5)
    with pytest.raises(InfeasibleState):
        model.rescaled_density("vi", 1.0, 1.0)
    with pytest.raises(ValidationError):
        model.rescaled_density("el", -0.1, 1.0)
    with pytest.raises(ValidationError):
        model.rescaled_density("bad", 0.1, 1.0)


def test_quadratic_limit_builtin():
    # the small-strain model: the curvatures at 0, no quartic term, quadratic
    # dissipation and no viscous constraint
    limit = MaterialModel().quadratic_limit()
    assert limit == MaterialModel(k_radius=sys.float_info.max)
    limit = MaterialModel(c_e=2.5, a4=3.0, c_v=0.7, d_v=1.9, k_radius=0.5).quadratic_limit()
    assert limit == MaterialModel(c_e=2.5, c_v=0.7, d_v=1.9, k_radius=sys.float_info.max)
    assert limit.w_vi(1e100) == 0.5 * 0.7 * 1e100 * 1e100


def test_quadratic_limit_rejects_nonquadratic_rate_exponent():
    with pytest.raises(ValidationError):
        MaterialModel(p_psi=3.0).quadratic_limit()


def pinch_radius(density, curvature, delta, s_grid):
    """Largest sampled |s| up to which (1-delta) q <= w <= (1+delta) q holds
    at every sample, with q(s) = curvature/2 s^2."""
    radius = 0.0
    quad = 0.5 * curvature * s_grid**2
    w = np.asarray(density(s_grid))
    margins = np.minimum(w - (1.0 - delta) * quad, (1.0 + delta) * quad - w)
    for idx in np.argsort(np.abs(s_grid)):
        if margins[idx] < 0.0:
            break
        radius = abs(float(s_grid[idx]))
    return radius


COEFFICIENT = st.floats(min_value=0.01, max_value=100.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    c_e=COEFFICIENT,
    a4=st.one_of(st.just(0.0), COEFFICIENT),
    c_v=COEFFICIENT,
    d_v=COEFFICIENT,
    p_psi=st.one_of(st.just(2.0), st.floats(min_value=2.0, max_value=4.0)),
    k_radius=st.floats(min_value=0.01, max_value=10.0),
)
def test_densities_are_admissible_on_the_admissible_set(
    c_e, a4, c_v, d_v, p_psi, k_radius
):
    assert_admissible(
        MaterialModel(
            c_e=c_e, a4=a4, c_v=c_v, d_v=d_v, p_psi=p_psi, k_radius=k_radius
        )
    )


def test_check_assumptions_builtin_family_satisfied():
    for model in (
        MaterialModel(),
        MaterialModel(a4=1.0),
        MaterialModel(c_e=2.0, c_v=0.5, d_v=1.5),
    ):
        assert_admissible(model)


def test_pinch_radius_quadratic_covers_whole_grid():
    s = np.linspace(-2.0, 2.0, 201)
    assert pinch_radius(MaterialModel().w_el, 1.0, 0.01, s) == pytest.approx(2.0)


def test_pinch_radius_quartic_shrinks_with_delta():
    model = MaterialModel(a4=1.0)
    s = np.linspace(-2.0, 2.0, 201)
    wide = pinch_radius(model.w_el, model.c_e, 0.5, s)
    narrow = pinch_radius(model.w_el, model.c_e, 0.01, s)
    assert 0.0 < narrow < wide
    # w_el/q - 1 = (a4/(2 c_e)) s^2 <= delta pins the radius analytically.
    assert narrow <= math.sqrt(2.0 * 0.01) + 0.05
    assert wide <= math.sqrt(2.0 * 0.5) + 0.05


def assert_admissible(model):
    """Sampled hypotheses on the densities of one model: zero at the origin,
    nonnegative, psi convex, coercive and p_psi-homogeneous, and w_el and w_vi
    pinched two-sidedly by their quadratic limits."""
    a4, d_v, p_psi = model.a4, model.d_v, model.p_psi
    if p_psi == 2.0:
        limit = model.quadratic_limit()
        c_e, c_v = limit.c_e, limit.c_v
    else:
        c_e, c_v = model.c_e, model.c_v
    r = np.linspace(-2.0, 2.0, 201)
    s = np.linspace(-min(2.0, model.k_radius), min(2.0, model.k_radius), 201)
    psi = np.asarray(model.psi(r))
    tol = 1e-12 * max(1.0, float(np.max(psi)))

    # zero at the origin, nonnegative
    assert model.w_el(0.0) == model.w_vi(0.0) == model.psi(0.0) == 0.0
    assert min(np.min(model.w_el(s)), np.min(model.w_vi(s)), np.min(psi)) >= 0.0

    # midpoint convexity of psi
    mid = np.asarray(model.psi(0.5 * (r[:-1] + r[1:])))
    assert np.all(mid <= 0.5 * (psi[:-1] + psi[1:]) + tol)

    # coercivity psi(r) >= d_v/2 |r|^p
    assert np.all(psi >= 0.5 * d_v * np.abs(r) ** p_psi - tol)

    # positive p-homogeneity
    for lam in (0.25, 0.5, 2.0, 3.0):
        scaled = np.asarray(model.psi(lam * r))
        np.testing.assert_allclose(scaled, lam**p_psi * psi, rtol=1e-12, atol=0.0)

    # w_el/q - 1 = (a4 / (2 c_e)) s^2: the two-sided quadratic pinch holds on
    # |s| <= sqrt(2 delta c_e / a4), and on the whole grid without a4
    radii = [pinch_radius(model.w_el, c_e, delta, s) for delta in (0.5, 0.1, 0.01)]
    assert radii[0] >= radii[1] >= radii[2]
    for delta, radius in zip((0.5, 0.1, 0.01), radii):
        if a4 == 0.0:
            assert radius == float(np.max(s))
        else:
            assert radius <= math.sqrt(2.0 * delta * c_e / a4) * (1.0 + 1e-9)

    # w_vi is exactly quadratic: the pinch holds on the whole grid
    for delta in (0.5, 0.1, 0.01):
        assert pinch_radius(model.w_vi, c_v, delta, s) == float(np.max(s))
