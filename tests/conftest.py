from dataclasses import replace

import numpy as np
import pytest

from fredtw import airy_model, build_awf, half_line, nystrom
from fredtw import solve_q


@pytest.fixture(scope="session")
def airy():
    return airy_model()


@pytest.fixture(scope="session")
def airy_sol(airy):
    """Converged Airy BVP solution on [-2, 8]."""
    return solve_q(airy, -2.0)


@pytest.fixture(scope="session")
def airy_table(airy):
    """Order-4 AWF table for the Airy model on [0, inf)."""
    return build_awf(airy, nystrom(half_line(0.0), model=airy), 4)


def endpoint_q(model, tau):
    """Independent oracle for q(tau) = [(I - K_[tau,inf))^{-1} psi](tau):
    a fresh Nystrom resolvent build on the half-line starting at tau."""
    table = build_awf(model, nystrom(half_line(tau), model=model), 1)
    return table.eval_chi(0, 0, tau)


def counting(model):
    """model whose pair evaluator counts its array and scalar calls."""
    calls = {"array": 0, "scalar": 0}

    def pair(x):
        calls["scalar" if np.ndim(x) == 0 else "array"] += 1
        return model.pair(x)

    return replace(model, pair=pair), calls
