"""States, loading, grids, energies, and analytic-gradient consistency."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visco_pt.domain import (
    Loading,
    ShearColumnMesh,
    State,
    TimeGrid,
    dissipation_displacement,
    dissipation_increment,
    elastic_strain,
    energy_value,
    pairing_products,
    stored_energies,
    total_energy,
    viscous_strain,
)
from visco_pt.errors import InfeasibleState, ValidationError
from visco_pt.rheology import MATERIAL_POINT, MaterialModel, SHEAR_COLUMN

MESH = ShearColumnMesh(8)


def random_mp_state(rng):
    return State.material_point(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))


def random_shear_state(rng, mesh=MESH):
    gamma = rng.uniform(-4.0, 4.0, mesh.n_elements)
    beta = rng.uniform(-4.0, 4.0, mesh.n_elements)
    return State.shear_column(mesh, gamma, beta)


def test_mesh_properties():
    assert MESH.h == 0.125
    with pytest.raises(ValidationError):
        ShearColumnMesh(0)


def test_state_constructors_validate():
    with pytest.raises(InfeasibleState):
        State.material_point(1.0, 0.0)
    with pytest.raises(InfeasibleState):
        State.material_point(np.inf, 1.0)
    with pytest.raises(ValidationError):
        State.shear_column(MESH, np.zeros(3), np.zeros(3))
    with pytest.raises(ValidationError):
        State.shear_column(MESH, np.zeros(MESH.n_elements + 1), np.zeros(MESH.n_elements))
    nonfinite = np.zeros(MESH.n_elements)
    nonfinite[3] = np.nan
    with pytest.raises(InfeasibleState):
        State.shear_column(MESH, np.zeros(MESH.n_elements), nonfinite)
    with pytest.raises(InfeasibleState):
        State.shear_column(MESH, np.full(MESH.n_elements, np.inf), np.zeros(MESH.n_elements))
    # any finite slopes are a state: slopes carry no gauge
    state = State.shear_column(MESH, np.ones(MESH.n_elements), np.ones(MESH.n_elements))
    assert state.gamma.shape == state.beta.shape == (MESH.n_elements,)


def test_strain_coordinates():
    state = State.material_point(1.2, 1.5)
    assert elastic_strain(state) == pytest.approx(1.2 / 1.5 - 1.0)
    assert viscous_strain(state) == pytest.approx(0.5)
    mesh = ShearColumnMesh(2)
    state = State.shear_column(mesh, [0.6, 0.4], [0.2, 0.0])
    np.testing.assert_allclose(elastic_strain(state), [0.4, 0.4])
    np.testing.assert_allclose(viscous_strain(state), [0.2, 0.0])


def test_loading_polynomials_and_pairing():
    loading = Loading(f_coeffs=(0.1, 0.2), g_coeffs=(0.3,))
    assert loading.f(2.0) == pytest.approx(0.5)
    assert loading.g(2.0) == pytest.approx(0.3)
    assert not loading.is_zero
    assert Loading().is_zero
    assert Loading(f_coeffs=(), g_coeffs=()).is_zero

    mp = State.material_point(1.4, 1.1)
    assert loading.pairing(mp, 2.0) == pytest.approx((0.5 + 0.3) * 1.4)

    # Shear column: f pairs with the integral of the profile gamma, which the
    # trapezoid rule integrates exactly (P1), and g with its top value.
    rng = np.random.default_rng(5)
    for n in (1, 4, 9):
        mesh = ShearColumnMesh(n)
        state = State.shear_column(mesh, rng.uniform(-1.0, 1.0, n), np.zeros(n))
        gamma = np.concatenate([[0.0], mesh.h * np.cumsum(state.gamma)])
        integral = mesh.h * (float(np.sum(gamma)) - 0.5 * (gamma[0] + gamma[-1]))
        expected = 0.5 * integral + 0.3 * gamma[-1]
        assert loading.pairing(state, 2.0) == pytest.approx(expected, abs=1e-15)


def test_time_grid():
    grid = TimeGrid(3.0, 300)
    assert grid.tau == pytest.approx(0.01)
    assert grid.times[0] == 0.0 and grid.times[-1] == 3.0
    assert len(grid.times) == 301
    with pytest.raises(ValidationError):
        TimeGrid(0.0, 10)
    with pytest.raises(ValidationError):
        TimeGrid(1.0, 0)


@pytest.mark.parametrize("t_final, n_steps", [(3.0, 300), (1.0, 80), (0.7, 3)])
def test_time_grid_times_are_computed_once_and_read_only(t_final, n_steps):
    grid = TimeGrid(t_final, n_steps)
    times = grid.times
    reference = np.linspace(0.0, t_final, n_steps + 1)
    assert times.dtype == reference.dtype
    assert times.tobytes() == reference.tobytes()
    assert grid.times is times
    with pytest.raises(ValueError):
        times[1] = 0.5
    assert grid == TimeGrid(t_final, n_steps)


def test_stored_and_total_energy_material_point():
    model = MaterialModel()
    state = State.material_point(1.2, 1.5)
    w_el, w_vi = stored_energies(model, state)
    assert w_el == pytest.approx(0.5 * (1.2 / 1.5 - 1.0) ** 2, abs=1e-15)
    assert w_vi == pytest.approx(0.125, abs=1e-15)
    loading = Loading(f_coeffs=(0.2,))
    value, grad = total_energy(model, state, loading, 1.0)
    assert value == pytest.approx(w_el + w_vi - 0.2 * 1.2, abs=1e-15)
    assert grad.shape == (2,)


def test_total_energy_shear_matches_hand_quadrature():
    model = MaterialModel(c_e=2.0, c_v=0.5)
    mesh = ShearColumnMesh(2)
    state = State.shear_column(mesh, [0.6, 0.4], [0.2, 0.0])
    value, _ = total_energy(model, state, Loading(), 0.0)
    s_el = np.array([0.4, 0.4])
    s_vi = np.array([0.2, 0.0])
    expected = 0.5 * float(np.sum(2.0 * s_el**2 + 0.5 * s_vi**2)) * mesh.h
    assert value == pytest.approx(expected, abs=1e-15)


def test_state_mode_is_read_from_the_mesh():
    assert State.material_point(1.0, 1.0).mode == MATERIAL_POINT == "material_point"
    state = State.shear_column(ShearColumnMesh(2), [0.0, 0.0], [0.0, 0.0])
    assert state.mode == SHEAR_COLUMN == "shear_column"
    with pytest.raises(AttributeError):
        state.mode = MATERIAL_POINT


def unpack(template, x):
    """The state with the packed dofs x = [gamma, beta] on the template's mesh."""
    if template.mesh is None:
        return State.material_point(x[0], x[1])
    n = template.mesh.n_elements
    return State.shear_column(template.mesh, x[:n], x[n:])


def gradient_rel_error(model, state, loading, t, h=1e-6):
    """Sup-norm relative error of the analytic gradient vs central FD."""
    x = np.concatenate([state.gamma, state.beta])
    _, grad = total_energy(model, state, loading, t)
    fd = np.zeros_like(x)
    for k in range(x.size):
        step = np.zeros_like(x)
        step[k] = h
        up = total_energy(model, unpack(state, x + step), loading, t)[0]
        dn = total_energy(model, unpack(state, x - step), loading, t)[0]
        fd[k] = (up - dn) / (2.0 * h)
    scale = max(float(np.max(np.abs(grad))), 1e-8)
    return float(np.max(np.abs(fd - grad))) / scale


def test_gradient_matches_finite_differences_both_modes():
    loading = Loading(f_coeffs=(0.1, 0.05), g_coeffs=(0.2,))
    model = MaterialModel(c_e=1.2, a4=0.8, c_v=0.9)
    rng = np.random.default_rng(11)
    for _ in range(25):
        assert gradient_rel_error(model, random_mp_state(rng), loading, 0.7) < 1e-6
        assert gradient_rel_error(model, random_shear_state(rng), loading, 0.7) < 1e-6


def test_dissipation_increment_scalar_spot_value():
    model = MaterialModel()
    old = State.material_point(1.5, 1.5)
    new = State.material_point(1.235294, 1.235294)
    rate = (1.235294 - 1.5) / (0.5 * 1.5)
    value = dissipation_increment(model, new, old, 0.5)
    assert value == pytest.approx(0.5 * 0.5 * rate * rate, abs=1e-15)
    assert value == pytest.approx(0.031142, abs=5e-7)


def test_dissipation_homogeneity_in_the_displacement():
    model = MaterialModel(p_psi=3.0)
    old = State.material_point(1.5, 1.5)
    near = State.material_point(1.5, 1.6)
    far = State.material_point(1.5, 1.7)
    ratio = dissipation_displacement(model, far, old) / dissipation_displacement(
        model, near, old
    )
    assert ratio == pytest.approx(2.0**3, rel=1e-12)


def test_dissipation_pair_validation():
    model = MaterialModel()
    mp = State.material_point(1.0, 1.0)
    sh = random_shear_state(np.random.default_rng(1))
    with pytest.raises(ValidationError):
        dissipation_increment(model, mp, sh, 0.1)
    other = random_shear_state(np.random.default_rng(2), ShearColumnMesh(4))
    with pytest.raises(ValidationError):
        dissipation_increment(model, sh, other, 0.1)



SLOPE = st.floats(-0.5, 0.5)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    data=st.data(),
    mode=st.sampled_from([MATERIAL_POINT, SHEAR_COLUMN]),
    c_e=st.floats(0.5, 2.5),
    a4=st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
    c_v=st.floats(0.3, 1.5),
    d_v=st.floats(0.5, 2.5),
    p_psi=st.one_of(st.just(2.0), st.floats(2.0, 3.0)),
    k_radius=st.floats(1.0, 10.0),
    f_coeffs=st.lists(st.floats(-0.3, 0.3), min_size=1, max_size=3),
    g_coeffs=st.lists(st.floats(-0.3, 0.3), min_size=1, max_size=3),
    t=st.floats(0.0, 3.0),
)
def test_energy_value_is_exactly_the_value_of_total_energy(
    data, mode, c_e, a4, c_v, d_v, p_psi, k_radius, f_coeffs, g_coeffs, t
):
    model = MaterialModel(
        c_e=c_e, a4=a4, c_v=c_v, d_v=d_v, p_psi=p_psi, k_radius=k_radius
    )
    loading = Loading(f_coeffs=tuple(f_coeffs), g_coeffs=tuple(g_coeffs))
    if mode == MATERIAL_POINT:
        state = State.material_point(
            data.draw(st.floats(0.6, 1.8)), data.draw(st.floats(0.6, 1.8))
        )
    else:
        mesh = ShearColumnMesh(data.draw(st.integers(1, 8)))
        n = mesh.n_elements
        gamma = data.draw(st.lists(SLOPE, min_size=n, max_size=n))
        beta = data.draw(st.lists(SLOPE, min_size=n, max_size=n))
        state = State.shear_column(mesh, gamma, beta)
    assert energy_value(model, state, loading, t) == total_energy(
        model, state, loading, t
    )[0]


@pytest.mark.parametrize("n_elements", [1, 2, 8, 16, 33])
def test_pairing_products_form_each_states_own_product(n_elements):
    # The stacked product of a strided dof view gives, byte for byte, each
    # state's load_shapes @ slopes, the product the per-state pairing forms.
    mesh = ShearColumnMesh(n_elements)
    rng = np.random.default_rng(n_elements)
    dofs = rng.normal(size=(41, 2, n_elements)) * 10.0 ** rng.integers(-6, 6, (41, 2, n_elements))
    y = dofs[:, 0]
    products = pairing_products(mesh, y)
    assert products.shape == (2, len(y))
    expected = np.array([mesh.load_shapes @ row for row in y]).T
    assert products.tobytes() == expected.tobytes()
