"""Solver settings."""

import pytest

from visco_pt.errors import ValidationError
from visco_pt.minimize import MinimizeSettings


def test_settings_validation():
    # A grad_tol of inf would accept every Newton start as converged. The
    # message names the field and the value.
    for field, value in (
        ("grad_tol", 0.0),
        ("grad_tol", -1e-10),
        ("grad_tol", float("nan")),
        ("grad_tol", float("inf")),
        ("max_iter", 0),
    ):
        with pytest.raises(ValidationError, match=f"{field} .*{value!r}"):
            MinimizeSettings(**{field: value})
