import numpy as np
import pytest
import scipy.linalg

from koopbilevel import get_dictionary, get_system, identify, rk4_step
from koopbilevel.gedmd import GeneratorModel

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


def rk4_path(system, x0, U, T, substeps):
    """The ``(N+1, n_x)`` states at the knots k T/N of the system driven from
    ``x0`` by the N inputs ``U``: row k is held on [k T/N, (k+1) T/N), which
    is taken in ``substeps`` steps of ``rk4_step``."""
    h = T / len(U) / substeps
    states = [np.asarray(x0, dtype=float)]
    for u in U:
        x = states[-1]
        for _ in range(substeps):
            x = rk4_step(system, x, u, h)
        states.append(x)
    return np.array(states)


@pytest.fixture(scope="session")
def rk4_oracle():
    return rk4_path


def _model_from_matrices(L0, Li, dictionary):
    """A ``GeneratorModel`` of given generator matrices: its factor ``[I |
    L0^T | L1^T ... ; 0]`` fits back to ``L0`` and ``Li`` bitwise."""
    top = np.hstack([np.eye(len(L0))] + [L.T for L in (L0, *Li)])
    model = GeneratorModel(
        factor=np.vstack([top, np.zeros(top.shape[1])]), dictionary=dictionary,
        seed=0, n_s=0,
        box=np.array([[-1.0, 1.0]] * dictionary.n_x), system_name="matrices",
    )
    assert all(np.array_equal(a, b) for a, b in zip((model.L0, *model.Li), (L0, *Li)))
    return model


@pytest.fixture(scope="session")
def model_from_matrices():
    return _model_from_matrices


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
