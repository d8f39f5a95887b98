from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from liesegang.errors import InvalidParameter
from liesegang.specfun import erfc, kummer_m, kummer_series

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
    assert kummer_m(1.0, 2.0, -1.0) == pytest.approx(1.0 - np.exp(-1.0), rel=1e-14)


def test_kummer_negative_argument_oracle():
    # frozen from the exact rational series with 200 terms
    oracle = 0.9323660202426756
    assert kummer_rational(1, Fraction(7, 2), Fraction(-1, 4)) == pytest.approx(oracle, abs=1e-15)
    assert kummer_m(1.0, 3.5, -0.25) == pytest.approx(oracle, rel=5e-15)


def test_kummer_rejects_bad_b():
    with pytest.raises(InvalidParameter, match="non-positive integer"):
        kummer_m(1.0, 0.0, -1.0)
    with pytest.raises(InvalidParameter, match="non-positive integer"):
        kummer_m(1.0, -3.0, -1.0)


def test_kummer_domain_cap():
    with pytest.raises(InvalidParameter):
        kummer_m(1.0, 2.0, -60.0)
    with pytest.raises(InvalidParameter):
        kummer_m(1.0, 2.0, np.array([-0.5, np.nan]))


@pytest.mark.parametrize(
    "a, b, z",
    [(1.0, 2.0, 1.0), (1.0, 2.0, 5e-324), (0.3, 3.3, np.array([-1.7, -0.25, 0.5])),
     (-0.5, 2.0, -1.0), (2.5, 2.0, -1.0), (np.nan, 2.0, -1.0)],
)
def test_kummer_rejects_arguments_outside_the_series_domain(a, b, z):
    # the transformed series needs z <= 0 and 0 <= a <= b; the profile,
    # the only caller, passes a = kappa/2 or kappa/2 + 1, b = kappa + 1/2
    # with kappa > 1, and z = -eta^2/4
    with pytest.raises(InvalidParameter, match="0 <= a <= b and z <= 0"):
        kummer_m(a, b, z)


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
    st.floats(min_value=-5.0, max_value=0.0),
)
def test_kummer_m_a_a_is_exp(a, z):
    assert kummer_m(a, a, z) == pytest.approx(np.exp(z), rel=10 * REL_TOL)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.3, max_value=4.0),
    st.floats(min_value=0.5, max_value=3.0),
    st.floats(min_value=-10.0, max_value=0.0),
)
@example(0.3, 3.0, -1.75)  # scipy 1.17's hyp1f1 is 1.8e-13 off here
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


def test_kummer_small_a_against_rational_oracle():
    # a = 0.3, b = 3.3: scipy 1.17's hyp1f1 strays by up to 3e-12 relative
    # for z in about [-2.6, 0); the exact rational series does not
    for z in (-0.1, -0.5, -1.0, -1.25, -1.7, -2.5, -4.0):
        assert kummer_m(0.3, 3.3, z) == pytest.approx(kummer_rational(0.3, 3.3, z), rel=1e-14)
    z = np.array([-1.7, -0.25, 0.0])
    assert np.array_equal(kummer_m(0.3, 3.3, z), [kummer_m(0.3, 3.3, x) for x in z])


@pytest.mark.parametrize("kappa", [1.03, 2.9, 7.5, 46.0])
def test_kummer_array_sums_equal_scalar_calls(kappa):
    # each point of an array call must be bitwise its scalar value
    rng = np.random.default_rng(17)
    z = np.concatenate((-rng.uniform(0.0, 12.5, 300), [0.0, -12.5]))
    for a in (kappa / 2.0, kappa / 2.0 + 1.0):
        assert np.array_equal(kummer_m(a, kappa + 0.5, z), [kummer_m(a, kappa + 0.5, x) for x in z])


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
    zs = np.array([-3.0, -0.5, -0.25, -1e-3, 0.0])
    vec = kummer_m(1.3, 2.4, zs)
    assert vec == pytest.approx([kummer_m(1.3, 2.4, z) for z in zs], rel=1e-14)
    xs = np.array([-1.0, 0.3, 2.5])
    assert erfc(xs) == pytest.approx([erfc(x) for x in xs], rel=1e-14)


# ---------------------------------------------------------------------------
# kummer_series: the series P(w) = e^w M(a, b, -w) behind the derived kernel's
# M(kappa/2, kappa + 1/2, -zeta^2/4), zeta <= alpha, so |z| <= alpha^2/4 (49 at alpha = 14)

SERIES_KAPPAS = (1.0001, 1.77, 4.3, 20.0, 50.0)
SERIES_ALPHAS = (0.8, 1.3, 3.0, 7.0, 10.0, 14.0)


@pytest.mark.parametrize("kappa", SERIES_KAPPAS)
def test_kummer_series_matches_hyp1f1_and_exact_series(kappa):
    a, b = kappa / 2.0, kappa + 0.5
    for alpha in SERIES_ALPHAS:
        z_max = alpha * alpha / 4.0
        series = kummer_series(a, b, z_max)
        z = -np.linspace(0.0, z_max, 33)
        got = np.exp(z) * series(-z)
        # hyp1f1 itself drifts to ~1e-14 past alpha = 7 (against 40-digit
        # mpmath), so it is the oracle there only up to alpha = 7
        if alpha <= 7.0:
            np.testing.assert_allclose(got, kummer_m(a, b, z), rtol=4e-15, atol=0.0)
        for zz, g in zip(z[16::16], got[16::16]):
            # the exact terms fall below 1e-20 of the sum by n = 30 + 4|z|
            exact = kummer_rational(a, b, float(zz), n_terms=int(30 - 4 * zz))
            assert g == pytest.approx(exact, rel=4e-15, abs=0.0)


def test_kummer_series_identities():
    for a in (0.5, 2.15, 25.0):
        series = kummer_series(a, a, 40.0)
        w = np.linspace(0.0, 40.0, 101)
        assert np.array_equal(series(w), np.ones_like(w))  # M(a, a, z) = e^z
        assert kummer_series(a, 2.0 * a + 0.5, 12.5)(0.0) == 1.0


def test_kummer_series_domain_checks():
    with pytest.raises(InvalidParameter):
        kummer_series(1.0, 2.0, 50.5)
    with pytest.raises(InvalidParameter):
        kummer_series(1.0, 2.0, np.nan)
    with pytest.raises(InvalidParameter):
        kummer_series(1.0, -2.0, 1.0)
    kummer_series(1.0, 2.0, 50.0)  # the cap itself is allowed, as in kummer_m
