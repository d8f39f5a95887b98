from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from liesegang.errors import InvalidParameter
from liesegang.specfun import erfc, kummer_m

REL_TOL = 1e-15


def kummer_rational(a, b, z, n_terms=200):
    """Brute-force series in exact rational arithmetic (oracle)."""
    a, b, z = Fraction(a), Fraction(b), Fraction(z)
    term, total = Fraction(1), Fraction(1)
    for n in range(n_terms):
        term *= (a + n) * z / ((b + n) * (n + 1))
        total += term
    return float(total)


def erfc_quadrature(x):
    """(2/sqrt(pi)) int_x^inf exp(-t^2) dt by adaptive quadrature (oracle).

    The tail form keeps full relative accuracy where erfc(x) is tiny; the
    form 1 - (2/sqrt(pi)) int_0^x cancels to exactly 0.0 there.
    """
    val, _ = integrate.quad(lambda t: np.exp(-t * t), x, np.inf, epsabs=0.0, epsrel=1e-13)
    return 2.0 / np.sqrt(np.pi) * val


def test_kummer_at_zero():
    assert kummer_m(0.7, 1.9, 0.0) == 1.0


def test_kummer_exponential_identity():
    # M(1, 2, z) = (e^z - 1)/z
    assert kummer_m(1.0, 2.0, 1.0) == pytest.approx(np.e - 1.0, rel=1e-14)


def test_kummer_negative_argument_oracle():
    # frozen from the exact rational series with 200 terms
    oracle = 0.9323660202426756
    assert kummer_rational(1, Fraction(7, 2), Fraction(-1, 4)) == pytest.approx(oracle, abs=1e-15)
    assert kummer_m(1.0, 3.5, -0.25) == pytest.approx(oracle, rel=5e-15)


def test_kummer_rejects_bad_b():
    with pytest.raises(InvalidParameter):
        kummer_m(1.0, 0.0, 1.0)
    with pytest.raises(InvalidParameter):
        kummer_m(1.0, -3.0, 1.0)


def test_kummer_domain_cap():
    with pytest.raises(InvalidParameter):
        kummer_m(1.0, 2.0, 60.0)
    with pytest.raises(InvalidParameter):
        kummer_m(1.0, 2.0, np.array([0.5, np.nan]))


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=1.0, max_value=50.0, exclude_min=True),
    st.booleans(),
    st.integers(min_value=-25 * 2**15, max_value=0).map(lambda k: k / 2**16),
)
def test_kummer_rational_oracle_on_library_domain(kappa, shifted, z):
    # the profile and kernel evaluate M(kappa/2 [+ 1], kappa + 1/2, z) with
    # z = -zeta^2/4 in [-12.5, 0]; the oracle sums the exact series at the
    # same floating-point arguments, so it carries no cancellation error.
    # z lies on a 2^-16 grid: a subnormal z would make the exact sum crawl
    a = kappa / 2.0 + (1.0 if shifted else 0.0)
    b = kappa + 0.5
    assert kummer_m(a, b, z) == pytest.approx(kummer_rational(a, b, z), rel=1e-13)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.5, max_value=5.0),
    st.floats(min_value=-5.0, max_value=5.0),
)
def test_kummer_m_a_a_is_exp(a, z):
    assert kummer_m(a, a, z) == pytest.approx(np.exp(z), rel=10 * REL_TOL)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.3, max_value=4.0),
    st.floats(min_value=0.5, max_value=3.0),
    st.floats(min_value=-10.0, max_value=0.0),
)
def test_kummer_transformation_consistency(a, db, z):
    # direct alternating series against the transformed evaluation; the
    # direct sum cancels catastrophically for large |z| (its largest term
    # grows like e^|z|), which bounds the achievable agreement
    b = a + db
    direct, total = 1.0, 1.0
    peak = 1.0
    for n in range(600):
        direct *= (a + n) * z / ((b + n) * (n + 1.0))
        total += direct
        peak = max(peak, abs(direct))
        if abs(direct) < 1e-17 * max(abs(total), 1e-300):
            break
    cancel_floor = 32.0 * np.finfo(float).eps * peak
    assert kummer_m(a, b, z) == pytest.approx(
        total, rel=10 * REL_TOL, abs=max(1e-13, cancel_floor)
    )


def test_erfc_at_zero():
    assert erfc(0.0) == 1.0


def test_erfc_large_argument():
    val = erfc(10.0)
    assert 0.0 <= val < 1e-44


def test_erfc_against_quadrature_oracle():
    oracle = 0.4795001221869535  # frozen from the quadrature oracle
    assert erfc_quadrature(0.5) == pytest.approx(oracle, abs=2e-15)
    assert erfc(0.5) == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("x", [0.1, 0.9, 1.999, 2.0, 2.001, 3.7, 6.5, 9.5])
def test_erfc_accuracy_sweep(x):
    assert erfc(x) == pytest.approx(erfc_quadrature(x), rel=1e-12, abs=0.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-5.0, max_value=5.0))
def test_erfc_reflection(x):
    assert erfc(x) + erfc(-x) == pytest.approx(2.0, abs=1e-14)


def test_erfc_strictly_decreasing():
    xs = np.linspace(-4.0, 8.0, 400)
    vals = erfc(xs)
    assert np.all(np.diff(vals) < 0)


def test_vectorized_matches_scalar():
    zs = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
    vec = kummer_m(1.3, 2.4, zs)
    assert vec == pytest.approx([kummer_m(1.3, 2.4, z) for z in zs], rel=1e-14)
    xs = np.array([-1.0, 0.3, 2.5])
    assert erfc(xs) == pytest.approx([erfc(x) for x in xs], rel=1e-14)
