import numpy as np
import pytest
import scipy.linalg

from koopbilevel import get_dictionary, get_system, identify

TWO_PI = 2.0 * np.pi


def exact_zoh(A, B, h):
    """(Ad, Bd) of ``dz/dt = A z + B u`` under a zero-order hold, from the top
    blocks of ``expm(h [[A, B], [0, 0]])`` (Van Loan, *Computing integrals
    involving the matrix exponential*, IEEE TAC 1978): an oracle independent
    of the modal discretization the package uses."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n, m = B.shape
    aug = np.zeros((n + m, n + m))
    aug[:n, :n], aug[:n, n:] = A, B
    E = scipy.linalg.expm(h * aug)
    return E[:n, :n], E[:n, n:]


@pytest.fixture(scope="session")
def zoh_oracle():
    return exact_zoh


@pytest.fixture(scope="session")
def oscillator():
    return get_system("oscillator")


@pytest.fixture(scope="session")
def pendulum():
    return get_system("pendulum")


@pytest.fixture(scope="session")
def pendulum_undamped():
    return get_system("pendulum", damping=0.0)


@pytest.fixture(scope="session")
def walker():
    return get_system("compass_gait")


@pytest.fixture(scope="session")
def oscillator_model(oscillator):
    return identify(
        oscillator,
        get_dictionary("linear_const", 2),
        n_s=500,
        seed=11,
        box=np.array([[-1.0, 1.0], [-1.0, 1.0]]),
    )


@pytest.fixture(scope="session")
def pendulum_model(pendulum):
    # identification box brackets the 40-degree orbit (1.25x its radius)
    return identify(
        pendulum,
        get_dictionary("pendulum12", 2),
        n_s=45000,
        seed=20240,
        box=np.array([[-0.875, 0.875], [-0.875, 0.875]]),
    )
