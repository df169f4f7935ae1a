"""Newton minimizer and SPD quadratic solves."""

import numpy as np
import scipy.linalg
import pytest

from visco_pt.errors import InfeasibleState, NotSymmetricPositiveDefinite
from visco_pt.minimize import (
    CONVERGED,
    LINE_SEARCH_STALLED,
    MAX_ITER_EXCEEDED,
    CholeskyOperator,
    MinimizeSettings,
    minimize_newton,
    solve_quadratic,
)


def quadratic_problem(H, b):
    def value_and_grad(x):
        return 0.5 * float(x @ H @ x) - float(b @ x), H @ x - b

    return value_and_grad


SPD = np.array([[4.0, 1.0], [1.0, 3.0]])
RHS = np.array([1.0, 2.0])
SOLUTION = np.linalg.solve(SPD, RHS)


def test_settings_validation():
    with pytest.raises(ValueError):
        MinimizeSettings(grad_tol=0.0)
    with pytest.raises(ValueError):
        MinimizeSettings(max_iter=0)
    with pytest.raises(ValueError):
        MinimizeSettings(armijo_c=1.0)
    with pytest.raises(ValueError):
        MinimizeSettings(backtrack_factor=0.0)


def test_minimize_newton_quadratic_one_step():
    result = minimize_newton(
        quadratic_problem(SPD, RHS), lambda x: SPD, np.zeros(2), MinimizeSettings()
    )
    assert result.status == CONVERGED
    assert result.iterations <= 2
    np.testing.assert_allclose(result.x, SOLUTION, atol=1e-12)


def quartic_value_and_grad(x):
    return float(np.sum(x**4)) + float(np.sum(x**2)), 4.0 * x**3 + 2.0 * x


def quartic_hessian(x):
    return np.diag(12.0 * x**2 + 2.0)


def test_minimize_newton_quartic():
    result = minimize_newton(
        quartic_value_and_grad,
        quartic_hessian,
        np.array([2.0, -1.5]),
        MinimizeSettings(grad_tol=1e-12),
    )
    assert result.status == CONVERGED
    np.testing.assert_allclose(result.x, np.zeros(2), atol=1e-10)


def test_minimize_newton_status_flags():
    # One Newton step does not finish the quartic: max_iter stops it, flagged.
    result = minimize_newton(
        quartic_value_and_grad, quartic_hessian, np.array([2.0, -1.5]),
        MinimizeSettings(max_iter=1),
    )
    assert result.status == MAX_ITER_EXCEEDED
    assert result.iterations == 1

    # +inf everywhere but the start: the full step predicts a decrease far
    # above rounding, so Armijo backtracks through value_only until the step
    # length underflows; the resolution rule never evaluates a trial.
    full_calls, value_calls = [], []

    def stuck(x):
        full_calls.append(x.copy())
        return (np.inf if x[0] != 0.0 else 0.0), np.array([1.0])

    def stuck_value(x):
        value_calls.append(x.copy())
        return np.inf if x[0] != 0.0 else 0.0

    result = minimize_newton(
        stuck, lambda x: np.eye(1), np.zeros(1), MinimizeSettings(),
        value_only=stuck_value,
    )
    assert result.status == LINE_SEARCH_STALLED
    assert result.iterations == 0
    assert len(full_calls) == 1
    assert len(value_calls) > 50


def test_minimize_newton_objective_is_monotone_on_accepted_iterates():
    # Full Newton steps on sum(sqrt(1 + x^2)) overshoot far from 0, so the
    # line search rejects trials; with a separate value_only those trials
    # never reach value_and_grad, which runs once per accepted point.
    values, trials = [], []

    def value_and_grad(x):
        root = np.sqrt(1.0 + x * x)
        values.append(float(np.sum(root)))
        return values[-1], x / root

    def value_only(x):
        trials.append(x.copy())
        return float(np.sum(np.sqrt(1.0 + x * x)))

    result = minimize_newton(
        value_and_grad,
        lambda x: np.diag((1.0 + x * x) ** -1.5),
        np.array([2.0, -1.5]),
        MinimizeSettings(),
        value_only=value_only,
    )
    assert result.status == CONVERGED
    assert len(values) == result.iterations + 1
    assert len(trials) > result.iterations
    assert np.all(np.diff(np.array(values)) <= 0.0)


def test_minimize_newton_ridge_handles_concave_start():
    # f(x) = x^4 - x^2 has negative curvature at the origin; the ridge
    # fallback must still produce descent into one of the two wells.
    def value_and_grad(x):
        return float(x[0] ** 4 - x[0] ** 2), np.array([4.0 * x[0] ** 3 - 2.0 * x[0]])

    def hessian(x):
        return np.array([[12.0 * x[0] ** 2 - 2.0]])

    result = minimize_newton(
        value_and_grad, hessian, np.array([0.1]), MinimizeSettings(grad_tol=1e-12)
    )
    assert result.status == CONVERGED
    assert abs(result.x[0]) == pytest.approx(np.sqrt(0.5), abs=1e-10)
    assert result.value == pytest.approx(-0.25, abs=1e-12)


def test_minimize_newton_respects_infeasible_trials():
    def value_and_grad(x):
        if x[0] > 1.0:
            raise InfeasibleState("outside")
        return (x[0] - 0.9) ** 2, np.array([2.0 * (x[0] - 0.9)])

    result = minimize_newton(
        value_and_grad,
        lambda x: np.array([[2.0]]),
        np.array([0.0]),
        MinimizeSettings(grad_tol=1e-12),
    )
    assert result.status == CONVERGED
    assert result.x[0] == pytest.approx(0.9, abs=1e-10)


def test_minimize_newton_judges_sub_rounding_steps_by_the_gradient():
    # From 1e-8 off the minimizer the full step's predicted decrease (1e-16)
    # is below the rounding of f ~ 1, and its value comes out one ulp higher:
    # the step is taken as one iteration because the gradient falls.
    def value_and_grad(x):
        f = 1.0 + 0.5 * (x[0] - 0.3) ** 2
        if x[0] == 0.3:
            f += np.finfo(float).eps
        return f, np.array([x[0] - 0.3])

    result = minimize_newton(
        value_and_grad, lambda x: np.eye(1), np.array([0.3 + 1e-8]), MinimizeSettings()
    )
    assert result.status == CONVERGED
    assert result.iterations == 1
    assert result.x[0] == 0.3


def test_minimize_newton_stalls_when_the_gradient_cannot_fall():
    # grad_tol below what the gradient can reach: once the step is
    # sub-rounding and the gradient stops falling, the solver says so
    # within a few iterations instead of running to max_iter.
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    c = np.array([0.3, -0.7])

    def value_and_grad(x):
        return float(np.sum(np.cosh(x - c)) + 0.5 * x @ A @ x), np.sinh(x - c) + A @ x

    result = minimize_newton(
        value_and_grad,
        lambda x: np.diag(np.cosh(x - c)) + A,
        np.array([2.0, -1.0]),
        MinimizeSettings(grad_tol=1e-30),
    )
    assert result.status == LINE_SEARCH_STALLED
    assert result.iterations < 20
    assert result.grad_inf <= 1e-12


def test_solve_quadratic_residual_guarantee():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((6, 6))
    H = A @ A.T + 6.0 * np.eye(6)
    b = rng.standard_normal(6)
    x = solve_quadratic(H, b)
    assert float(np.max(np.abs(H @ x - b))) <= 1e-10 * (1.0 + float(np.max(np.abs(b))))


def test_solve_quadratic_rejects_bad_matrices():
    with pytest.raises(NotSymmetricPositiveDefinite):
        solve_quadratic(np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones(2))
    with pytest.raises(NotSymmetricPositiveDefinite):
        solve_quadratic(-np.eye(2), np.ones(2))
    with pytest.raises(ValueError):
        solve_quadratic(np.eye(3), np.ones(2))


def test_cholesky_operator_repeated_solves():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((5, 5))
    H = A @ A.T + 5.0 * np.eye(5)
    op = CholeskyOperator(H)
    for _ in range(3):
        b = rng.standard_normal(5)
        np.testing.assert_allclose(op.solve(b), np.linalg.solve(H, b), atol=1e-10)
    with pytest.raises(NotSymmetricPositiveDefinite):
        CholeskyOperator(np.array([[0.0, 1.0], [1.0, 0.0]]) + np.array([[0.0, 0.5], [0.0, 0.0]]))


@pytest.mark.parametrize("n", [2, 8, 16, 64])
def test_cholesky_operator_matches_cho_solve_refinement_bitwise(n):
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, n))
    H = A @ A.T + n * np.eye(n)
    op = CholeskyOperator(H)
    factor = scipy.linalg.cho_factor(H, lower=True, check_finite=False)
    for _ in range(20):
        b = rng.standard_normal(n)
        x = scipy.linalg.cho_solve(factor, b, check_finite=False)
        x = x + scipy.linalg.cho_solve(factor, b - H @ x, check_finite=False)
        assert np.array_equal(op.solve(b), x)


@pytest.mark.parametrize("n", [2, 8, 16, 64])
def test_solve_quadratic_residual_guarantee_random_spd(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(10):
        A = rng.standard_normal((n, n))
        H = A @ A.T + 1e-3 * np.eye(n)
        b = 10.0 ** rng.uniform(-3, 3) * rng.standard_normal(n)
        x = solve_quadratic(H, b)
        assert float(np.max(np.abs(H @ x - b))) <= 1e-10 * (1.0 + float(np.max(np.abs(b))))
