import numpy as np
import pytest
from scipy.special import airy as scipy_airy

from fredtw.wavefun import (WaveModel, airy_model, check_regularity,
                            damped_airy_model, psi_second,
                            tabulated_model, zero_model)


def test_airy_values_against_scipy(airy):
    xi = np.linspace(-6.0, 8.0, 281)
    ai, aip, _, _ = scipy_airy(xi)
    psi, psip = airy.pair(xi)
    assert np.max(np.abs(psi - ai)) < 5e-15
    assert np.max(np.abs(psip - aip)) < 5e-15
    assert np.array_equal(airy.psi(xi), psi)


def test_airy_second_derivative_relation(airy):
    # psi'' from the closure relation vs a centered difference of psi'
    xi = np.linspace(-6.0, 8.0, 57)
    h = 1e-5
    fd = (airy.pair(xi + h)[1] - airy.pair(xi - h)[1]) / (2.0 * h)
    assert np.max(np.abs(fd - psi_second(airy, xi))) < 1e-8
    # and it reduces to xi * Ai(xi) exactly in this model
    assert np.max(np.abs(psi_second(airy, xi) - xi * airy.psi(xi))) == 0.0


def test_damped_model_second_derivative():
    m = damped_airy_model()
    xi = np.linspace(-2.0, 6.0, 33)
    h = 1e-5
    fd = (m.pair(xi + h)[1] - m.pair(xi - h)[1]) / (2.0 * h)
    assert np.max(np.abs(fd - psi_second(m, xi))) < 1e-8


def test_damped_model_pair_is_consistent():
    """The damped model's psi' is the derivative of its psi, and its psi
    is the profile's phi(u(0) + gamma xi)."""
    m = damped_airy_model()
    xi = np.linspace(-2.0, 6.0, 33)
    h = 1e-5
    fd = (m.psi(xi + h) - m.psi(xi - h)) / (2.0 * h)
    assert np.max(np.abs(fd - m.pair(xi)[1])) < 1e-8
    assert check_regularity(m, np.linspace(-2.0, 6.0, 101)).profile_consistent


def test_model_validation():
    z = lambda x: (np.zeros_like(np.asarray(x, dtype=float)),) * 2
    with pytest.raises(ValueError):
        WaveModel(pair=z, gamma=0.0)
    with pytest.raises(ValueError):
        WaveModel(pair=z, u0_dot=0.0)


def test_regularity_airy(airy):
    rep = check_regularity(airy, np.linspace(-2.0, 6.0, 101))
    assert rep.all_ok
    assert rep.profile_consistent
    assert not rep.psi_vanishes


def test_regularity_zero():
    rep = check_regularity(zero_model(), np.linspace(0.0, 4.0, 21))
    assert rep.psi_vanishes
    assert not rep.all_ok


def test_tabulated_model_roundtrip(airy):
    xi = np.linspace(-3.0, 9.0, 481)
    m = tabulated_model(xi, *airy.pair(xi))
    probe = np.linspace(-2.0, 8.0, 37)
    assert np.max(np.abs(m.psi(probe) - airy.psi(probe))) < 1e-9
    assert float(m.psi(0.0)) == pytest.approx(0.3550280538878172, abs=1e-9)
