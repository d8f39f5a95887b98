import pytest

from liesegang import degenerate, rings
from liesegang.kernel import build_kernel_table, synthetic_kernel
from liesegang.profile import ModelParams, solve_kappa

# kappa = 46: above kernel._GEO_KAPPA, so _g_grid splits its panels
LARGE_KAPPA_PARAMS = (2.78, 2.171, 0.172)
# (alpha, beta, u*) with kappa on both sides of 2, and the last at 46
SOURCE_IDENTITY_POINTS = [
    (1.0, 1.0, 0.2),
    (1.0, 1.0, 0.15),
    (0.8, 1.0, 0.1),
    (0.8, 1.0, 0.2),
    (1.3, 1.0, 0.1),
    (1.3, 1.0, 0.2),
    (1.0, 0.7, 0.12),
    (1.0, 1.5, 0.25),
    LARGE_KAPPA_PARAMS,
]


@pytest.fixture(scope="session")
def params02():
    return ModelParams(1.0, 1.0, 0.2)


@pytest.fixture(scope="session")
def profile02(params02):
    return solve_kappa(params02)


@pytest.fixture(scope="session")
def profile015():
    return solve_kappa(ModelParams(1.0, 1.0, 0.15))


@pytest.fixture(scope="session")
def profile01():
    return solve_kappa(ModelParams(1.0, 1.0, 0.1))


@pytest.fixture(scope="session")
def synthetic():
    return synthetic_kernel(0.5, 1.0)


@pytest.fixture(scope="session")
def model_kernel02(profile02):
    """(KernelTable, Kernel) for alpha = beta = 1, u* = 0.2."""
    return build_kernel_table(profile02, 2048, 1e-9)


@pytest.fixture(scope="session")
def model_kernel015(profile015):
    return build_kernel_table(profile015, 1024, 1e-9)


@pytest.fixture(scope="session")
def synthetic_pattern(synthetic):
    return rings.solve_pattern(synthetic, max_zeros=40, min_width=1e-9)


@pytest.fixture(scope="session")
def model_pattern(model_kernel02):
    _, kern = model_kernel02
    return rings.solve_pattern(kern, max_zeros=12, min_width=1e-6, horizon=100.0)


@pytest.fixture(scope="session")
def construction():
    return degenerate.construct_degenerate()
