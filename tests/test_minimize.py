"""Solver settings."""

import pytest

from visco_pt.minimize import MinimizeSettings


def test_settings_validation():
    with pytest.raises(ValueError):
        MinimizeSettings(grad_tol=0.0)
    with pytest.raises(ValueError):
        MinimizeSettings(max_iter=0)
