"""The Airy engine's entry points: a scalar inside the seam runs the
double-double series on Python floats, bit for bit the 1-element array
path; everything else goes through the array path; NaN gives NaN."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import airy as scipy_airy

from fredtw import airy
from fredtw.airy import SEAM, airy_ai, airy_ai_pair, airy_ai_prime

ENTRY_POINTS = (airy_ai, airy_ai_prime, airy_ai_pair)

SEAM_EDGES = (0.0, -0.0, SEAM, -SEAM,
              np.nextafter(SEAM, 0.0), np.nextafter(-SEAM, 0.0))
INSIDE = np.concatenate([np.linspace(-SEAM, SEAM, 4001), SEAM_EDGES])
BEYOND = (np.nextafter(SEAM, np.inf), np.nextafter(-SEAM, -np.inf),
          9.5, -9.5, 12.0, -12.0, 30.0, -30.0)


def _bits(v):
    return np.float64(v).tobytes()


def _array_path(x):
    """(Ai, Ai') of x through a 1-element array."""
    a, ap = airy_ai_pair(np.array([x]))
    return a[0], ap[0]


@pytest.fixture(scope="module")
def inside_reference():
    return [_array_path(float(x)) for x in INSIDE]


@pytest.mark.parametrize("as_input", [float, np.float64, np.array],
                         ids=["float", "float64", "0-d array"])
def test_scalar_is_the_array_path_bit_for_bit(inside_reference, as_input):
    for x, (a_ref, ap_ref) in zip(INSIDE, inside_reference):
        a, ap = airy_ai_pair(as_input(float(x)))
        assert type(a) is float and type(ap) is float
        assert (_bits(a), _bits(ap)) == (_bits(a_ref), _bits(ap_ref)), x


def test_scalar_inside_the_seam_skips_the_array_path(monkeypatch):
    def refuse(x):
        raise AssertionError("scalar reached the array path")

    monkeypatch.setattr(airy, "_ai_both", refuse)
    for x in SEAM_EDGES + (1.25, -3.0, 8.9):
        a, ap = airy_ai_pair(x)
        assert airy_ai(x) == a and airy_ai_prime(x) == ap
        assert type(airy_ai(np.float64(x))) is float


def test_entry_points_do_not_nest(monkeypatch):
    """Each public function answers on its own, so a tracer that wraps
    all three counts one call per call."""
    x = np.array([-12.0, 1.0, 12.0])
    expected = [f(x) for f in ENTRY_POINTS]
    for name in ("airy_ai", "airy_ai_prime", "airy_ai_pair"):
        monkeypatch.setattr(airy, name, None)
    for f, ref in zip(ENTRY_POINTS, expected):
        assert np.array_equal(f(x), ref)
        f(1.25)


def test_scalar_beyond_the_seam_is_the_array_path():
    for x in BEYOND:
        a, ap = airy_ai_pair(x)
        assert type(a) is float and type(ap) is float
        assert (_bits(a), _bits(ap)) == tuple(map(_bits, _array_path(x)))
        assert airy_ai(x) == a and airy_ai_prime(x) == ap


def test_nan_in_nan_out():
    nan = float("nan")
    for f in (airy_ai, airy_ai_prime):
        v = f(nan)
        assert type(v) is float and math.isnan(v)
    assert all(math.isnan(v) for v in airy_ai_pair(np.float64(nan)))

    x = np.array([1.0, nan, 2.0, -12.0, nan, 12.0])
    finite = ~np.isnan(x)
    a, ap = airy_ai_pair(x)
    a_ref, ap_ref = airy_ai_pair(x[finite])
    for got, ref in ((a, a_ref), (ap, ap_ref)):
        assert np.isnan(got[~finite]).all()
        assert np.array_equal(got[finite], ref)
    assert np.array_equal(airy_ai(x), a, equal_nan=True)
    assert np.array_equal(airy_ai_prime(x), ap, equal_nan=True)


def test_infinite_arguments_give_the_limits():
    """Ai(+inf) = +0, Ai'(+inf) = -0 and Ai(-inf) = 0; Ai' has no limit at
    -inf and gives NaN.  No warning on the way, through either path."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (math.inf, np.float64(math.inf)):
            a, ap = airy_ai_pair(x)
            assert (_bits(a), _bits(ap)) == (_bits(0.0), _bits(-0.0))
            a, ap = airy_ai_pair(-x)
            assert _bits(a) == _bits(0.0) and math.isnan(ap)
        x = np.array([-math.inf, -12.0, 1.0, 12.0, math.inf])
        a, ap = airy_ai_pair(x)
        a_ref, ap_ref = airy_ai_pair(x[1:-1])
        assert np.array_equal(a[1:-1], a_ref)
        assert np.array_equal(ap[1:-1], ap_ref)
        assert a[0] == a[-1] == 0.0 and math.isnan(ap[0])
        assert _bits(ap[-1]) == _bits(-0.0)


def test_large_array_is_its_blocks_bit_for_bit():
    """An array longer than a block is evaluated block by block: the
    result is the concatenation of the calls on its blocks, specials in
    later blocks included."""
    B = airy._BLOCK
    x = np.linspace(-30.0, 30.0, 3 * B + 17)
    x[B + 5] = math.nan
    x[2 * B + 1], x[2 * B + 2] = 0.0, -0.0
    x[3 * B + 3], x[3 * B + 9] = math.inf, -math.inf
    parts = [airy_ai_pair(x[s:s + B]) for s in range(0, x.size, B)]
    for got, ref in zip(airy_ai_pair(x), zip(*parts)):
        assert got.tobytes() == np.concatenate(ref).tobytes()


def test_2d_input_keeps_its_shape():
    X = np.linspace(-12.0, 12.0, 3 * (airy._BLOCK // 2 + 3)).reshape(3, -1)
    for Y in (X, X.T):                    # C- and F-ordered
        flat = airy_ai_pair(np.ascontiguousarray(Y).ravel())
        for got, ref in zip(airy_ai_pair(Y), flat):
            assert got.shape == Y.shape
            assert np.array_equal(got.ravel(), ref)


def test_large_array_memory_is_bounded():
    """The series' temporaries are block-sized: for 400,000 points the
    traced peak is the input and the two outputs (9.6 MB) plus a few MB,
    where one pass over the whole array needs about 70 MB."""
    tracemalloc.start()
    try:
        airy_ai_pair(np.linspace(-30.0, 30.0, 400_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24e6


# (lo, hi, bound, envelope): the asymptotic branches against scipy, each
# range sampled densely and the points just past the seam included.  On
# the right the error is relative to Ai, Ai'; on the left, where both
# oscillate, relative to the envelopes |x|^{-1/4}/sqrt(pi) of Ai and
# |x|^{1/4}/sqrt(pi) of Ai'.  Each bound is about twice the largest
# error measured over 22,001 points.  Past x = 100 scipy underflows to 0.
BEYOND_THE_SEAM = (
    (SEAM, 20.0, 3e-14, False),
    (20.0, 100.0, 3e-13, False),
    (-20.0, -SEAM, 5e-14, True),
    (-100.0, -20.0, 3e-13, True),
    (-1000.0, -100.0, 1e-11, True),
)


@pytest.mark.parametrize("lo, hi, bound, envelope", BEYOND_THE_SEAM,
                         ids=["(9,20]", "(20,100]", "[-20,-9)",
                              "[-100,-20)", "[-1000,-100)"])
def test_beyond_the_seam_against_scipy(lo, hi, bound, envelope):
    x = np.linspace(lo, hi, 22_001)
    x = x[np.abs(x) > SEAM]
    x = np.append(x, np.nextafter(SEAM, np.inf) if lo > 0
                  else np.nextafter(-SEAM, -np.inf))
    ai, aip = airy_ai_pair(x)
    ai_ref, aip_ref, _, _ = scipy_airy(x)
    if envelope:
        t = np.abs(x)
        scale = t ** -0.25 / np.sqrt(np.pi), t ** 0.25 / np.sqrt(np.pi)
    else:
        scale = np.abs(ai_ref), np.abs(aip_ref)
    assert np.max(np.abs(ai - ai_ref) / scale[0]) < bound
    assert np.max(np.abs(aip - aip_ref) / scale[1]) < bound
