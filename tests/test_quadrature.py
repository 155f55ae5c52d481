"""Tests for the Gauss-Legendre panels."""

import numpy as np
import pytest

from geoball import quadrature
from geoball.model import ball_volume_model, make_space_form
from geoball.quadrature import GaussPanels


def test_gauss_panels_exact_for_polynomials():
    # n_g nodes integrate degree 2*n_g - 1 exactly, on every panel,
    # including empty ones (a zero or repeated radius)
    rs = np.array([0.0, 0.3, 0.3, 1.0, 2.5])
    panels = GaussPanels(rs)
    for n_g in (2, 4, 8):
        x = panels.nodes(n_g)
        assert x.shape == (len(rs) * n_g,)
        got = panels.cumulative(x ** (2 * n_g - 1), n_g)
        np.testing.assert_allclose(got, rs ** (2 * n_g) / (2 * n_g), rtol=1e-14, atol=0)
    assert GaussPanels(0.7).radii.shape == (1,)
    # a NaN between sorted radii is unsorted too
    for bad in (np.array([1.0, 0.5]), np.array([]), np.ones((2, 2)),
                np.array([0.5, np.nan, 1.0])):
        with pytest.raises(ValueError):
            GaussPanels(bad)


def test_gauss_rules_built_once_per_order(monkeypatch):
    built = []
    leggauss = np.polynomial.legendre.leggauss

    def counted(n):
        built.append(n)
        return leggauss(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    quadrature._gauss_legendre.cache_clear()
    m = make_space_form(-1.0, 4)
    for r in (np.linspace(0.0, 2.0, 9), 0.5, 1.0, 2.0):
        ball_volume_model(m, r)
    assert built and len(built) == len(set(built))
    x, wts = quadrature._gauss_legendre(built[0])
    assert not x.flags.writeable and not wts.flags.writeable
    quadrature._gauss_legendre.cache_clear()
