import numpy as np
import pytest
from scipy import sparse

from cavtune import BareMode, EmitterParams, PumpSchedule, SystemParams, build_space, wl_to_omega
from cavtune.lindblad import _Generator

KAPPA_T = 1.564e11
ETA = 1.564e11
LAMBDA_T = 1552.0


def make_params(
    g=1e10,
    gamma_leaky=5e8,
    eta=ETA,
    kappa_t=KAPPA_T,
    kappa_fp=3 * KAPPA_T,
    lambda_fp=LAMBDA_T,
    pump=None,
):
    omega_t = wl_to_omega(LAMBDA_T)
    return SystemParams(
        EmitterParams(omega_t, g, gamma_leaky),
        BareMode(omega_t, kappa_t),
        BareMode(wl_to_omega(lambda_fp), kappa_fp),
        eta,
        pump if pump is not None else PumpSchedule(),
    )


class broken_target_generator(_Generator):
    """The compiled generator with the sign of the target channel's anticommutator
    flipped: a negative control whose generator breaks the trace.

    The flip adds ``rate * (n_t kron 1 + 1 kron n_t)`` to ``l0``, with ``rate``
    the target channel's ``2 kappa_t`` in rad/ps.
    """

    def __init__(self, params, spec, frame):
        super().__init__(params, spec, frame)
        n_t = sparse.csr_matrix(build_space(spec).n_t)
        eye = sparse.identity(spec.dim, format="csr")
        rate = 2.0 * params.target.kappa * 1e-12
        self.l0 = (self.l0 + rate * (sparse.kron(n_t, eye) + sparse.kron(eye, n_t))).tocsr()


def densities(traj) -> np.ndarray:
    """The ``(t, d, d)`` density matrices of a trajectory, through ``Trajectory.density``."""
    return np.array([traj.density(i) for i in range(traj.t_ps.size)])


@pytest.fixture
def default_params():
    return make_params()


@pytest.fixture
def rng():
    return np.random.RandomState(20240811)


def random_valid_system(rng, with_pump=False):
    """Random parameter draw satisfying every domain invariant."""
    omega0 = 1e15 * rng.uniform(0.5, 2.0)
    kappa_t = 1e11 * rng.uniform(0.3, 4.0)
    kappa_fp = 1e11 * rng.uniform(0.3, 4.0)
    g = rng.uniform(0.0, 0.5) * min(kappa_t, kappa_fp)
    return SystemParams(
        EmitterParams(omega0, g, 1e8 * rng.uniform(0.0, 10.0)),
        BareMode(1e15 * rng.uniform(0.5, 2.0), kappa_t),
        BareMode(1e15 * rng.uniform(0.5, 2.0), kappa_fp),
        1e11 * rng.uniform(0.0, 4.0),
        PumpSchedule(cw_rate=1e8 if with_pump else 0.0),
    )


def polished_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a 3x3 matrix, refined past LAPACK's roundoff floor.

    Shifts by the first diagonal entry, runs LAPACK, then applies Newton steps
    on the characteristic polynomial whose coefficients are computed exactly
    from the matrix entries.  On mixed-scale 3x3 matrices the direct eigvals
    call leaves O(1e-9 * ||A||) errors on delicate eigenvalues; polishing
    pushes them to the polynomial evaluation floor.
    """
    a = np.asarray(matrix, dtype=complex)
    assert a.shape == (3, 3)
    shift = a[0, 0]
    b = a - shift * np.eye(3)
    trace = b[0, 0] + b[1, 1] + b[2, 2]
    minors = (
        b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]
        + b[0, 0] * b[2, 2] - b[0, 2] * b[2, 0]
        + b[1, 1] * b[2, 2] - b[1, 2] * b[2, 1]
    )
    coeffs = np.array([1.0, -trace, minors, -np.linalg.det(b)], dtype=complex)
    deriv = np.polyder(coeffs)
    roots = np.linalg.eigvals(b)
    for _ in range(3):
        p = np.polyval(coeffs, roots)
        dp = np.polyval(deriv, roots)
        safe = np.abs(dp) > 0
        roots = np.where(safe, roots - p / np.where(safe, dp, 1.0), roots)
    return np.sort_complex(roots + shift)
