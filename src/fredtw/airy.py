"""
Airy function Ai and its derivative, implemented from scratch.

Two regimes:

* |x| <= SEAM: the Maclaurin pair f, g summed in double-double arithmetic.
  The series converges everywhere but suffers catastrophic cancellation
  (the partial sums grow like e^{2 zeta} relative to Ai on the positive
  axis), so plain double precision is not enough; the compensated
  (hi, lo) representation keeps ~32 significant digits through the
  cancellation and leaves full double accuracy in the result.
* |x| > SEAM: the standard asymptotic expansions in zeta = (2/3)|x|^{3/2}
  (DLMF 9.7), a fixed _N_ASYMP = 30 terms summed by Horner's rule.  At
  the seam, zeta = 18, the terms keep falling until k = 36 and the first
  term left out is 2.9e-17 of the first; past the seam they fall faster.
  So truncating at the smallest term would only add terms below the
  rounding, and the fixed sum is as accurate.  Past the seam the error is
  the rounding of zeta, about zeta * 1e-16: relative to Ai, Ai' for
  x > 0 (in exp(-zeta)), and relative to the envelope |x|^{-1/4}/sqrt(pi)
  of Ai (|x|^{1/4}/sqrt(pi) of Ai') for x < 0 (in the phase).  Measured
  against an mpmath oracle over 22,001 points per range
  (scipy.special.airy is within twice these of both), the largest error is
      x in (9, 20]: 1.1e-14    x in [-30, -9): 1.7e-14
      x in (20, 100]: 1.3e-13  x in [-100, -30): 1.2e-13
                               x in [-1e3, -100): 3.1e-12
  which is the range the engine claims.  On the negative axis the error
  keeps growing, to 7e-11 at -1e4, 7e-8 at -1e6 and 9e-2 at -1e10, and
  the phase overflows past -3e205.  Ai underflows to subnormals near
  x = 104 and to 0 just past 105; from there on, +inf included, the pair
  is (+0.0, -0.0).  At -inf it is (0.0, nan): Ai' has no limit.

Everything is vectorized over numpy arrays; scalars in, scalars out.  An
array runs in blocks of _BLOCK elements, so the memory the series needs
does not grow with its size; the series stops once every term of a block
is negligible, so an element's bits can depend on the block around it.  A
scalar inside the seam runs the same series, operation for operation, on
Python floats: a 1-element array pays numpy's per-call overhead on each
of the ~200 double-double operations per term, and costs about as much as
a 40-point array.  NaN in gives NaN out; neither NaN nor an infinity
raises a warning.
"""

import numpy as np

_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitting constant

# Ai(0) and Ai'(0) as double-double constants
_C1 = (0.3550280538878172, 2.05233632436212e-17)
_C2 = (0.2588194037928068, -2.522243111610832e-17)  # = -Ai'(0)

SEAM = 9.0
_X_ZERO = 1e3
_N_SERIES = 80
_N_ASYMP = 30
_BLOCK = 16384      # elements per pass of _ai_both (~128 KB per temporary)

_SQRTPI = 1.7724538509055160273


# ----------------------------------------------------------------------
# double-double primitives (error-free transformations), numpy-friendly

def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quick_two_sum(a, b):
    s = a + b
    return s, b - (s - a)


def _two_prod(a, b):
    p = a * b
    ta = _SPLIT * a
    ahi = ta - (ta - a)
    alo = a - ahi
    tb = _SPLIT * b
    bhi = tb - (tb - b)
    blo = b - bhi
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def _dd_add(x, y):
    s, e = _two_sum(x[0], y[0])
    e = e + x[1] + y[1]
    return _quick_two_sum(s, e)


def _dd_mul(x, y):
    p, e = _two_prod(x[0], y[0])
    e = e + x[0] * y[1] + x[1] * y[0]
    return _quick_two_sum(p, e)


def _dd_mul_d(x, d):
    p, e = _two_prod(x[0], d)
    e = e + x[1] * d
    return _quick_two_sum(p, e)


def _dd_div_d(x, d):
    q1 = x[0] / d
    p, e = _two_prod(q1, d)
    r, re = _two_sum(x[0], -p)
    q2 = (r + (re - e + x[1])) / d
    return _quick_two_sum(q1, q2)


# ----------------------------------------------------------------------
# Maclaurin branch.  Ai = c1*f - c2*g with
#   f = sum_k 3^k (1/3)_k x^{3k} / (3k)!
#   g = sum_k 3^k (2/3)_k x^{3k+1} / (3k+1)!

def _series_branch(x):
    """(Ai, Ai') for a float or an ndarray with |x| <= SEAM; the same
    operations in the same order either way."""
    zero = 0.0 * abs(x)                   # +0.0, as float or array
    one = zero + 1.0
    x3 = _dd_mul_d(_two_prod(x, x), x)

    tf = (one, zero)                      # f terms, k = 0 up
    tg = (x * 1.0, zero)                  # g terms (a copy; keeps -0.0)
    x2 = _two_prod(x, x)
    tfp = (x2[0] / 2.0, x2[1] / 2.0)      # f' terms, k = 1 up
    tgp = (one, zero)                     # g' terms, k = 0 up

    f, g, gp = tf, tg, tgp
    fp = (zero, zero)
    for k in range(1, _N_SERIES):
        tf = _dd_div_d(_dd_mul(tf, x3), float((3 * k - 1) * (3 * k)))
        tg = _dd_div_d(_dd_mul(tg, x3), float((3 * k) * (3 * k + 1)))
        # f' terms s_k = 3k a_k x^{3k-1}:   s_k/s_{k-1} = x^3 k / ((k-1)(3k-1)(3k))
        if k >= 2:
            tfp = _dd_div_d(_dd_mul_d(_dd_mul(tfp, x3), float(k)),
                            float((k - 1) * (3 * k - 1) * (3 * k)))
        # g' terms t_k = (3k+1) b_k x^{3k}: t_{k+1}/t_k = x^3 / ((3k+1)(3k+3))
        tgp = _dd_div_d(_dd_mul(tgp, x3), float((3 * k - 2) * (3 * k)))
        f = _dd_add(f, tf)
        g = _dd_add(g, tg)
        fp = _dd_add(fp, tfp)
        gp = _dd_add(gp, tgp)
        if k % 8 == 0 and np.all(abs(tf[0]) < 1e-45 * (1.0 + abs(f[0]))):
            break

    ai = _dd_add(_dd_mul(_C1, f), _dd_mul(_dd_mul_d(_C2, -1.0), g))
    aip = _dd_add(_dd_mul(_C1, fp), _dd_mul(_dd_mul_d(_C2, -1.0), gp))
    return ai[0] + ai[1], aip[0] + aip[1]


# ----------------------------------------------------------------------
# asymptotic branch.  u_k = Gamma(3k+1/2) / (54^k k! Gamma(k+1/2)),
# v_k = (6k+1)/(1-6k) u_k; both precomputed by their recurrences.

def _uv_tables():
    u = [1.0]
    for k in range(1, _N_ASYMP):
        u.append(u[-1] * (3 * k - 0.5) * (3 * k - 1.5) * (3 * k - 2.5)
                 / (54.0 * k * (k - 0.5)))
    u = np.array(u)
    k = np.arange(_N_ASYMP)
    v = u * (6 * k + 1) / (1.0 - 6 * k)
    v[0] = 1.0
    return u, v


_U, _V = _uv_tables()


def _horner(c, z):
    """sum_k c[k] z**k by Horner's rule, element-wise; z real or complex."""
    s = c[-1]
    for ck in c[-2::-1]:
        s = s * z + ck
    return s


def _asymp_pos(x):
    # Ai and Ai' are +0.0 and -0.0 in double precision from x ~ 105 on;
    # the cap keeps x = +inf at those limits instead of 0 * inf
    x = np.minimum(x, _X_ZERO)
    zeta = (2.0 / 3.0) * x ** 1.5
    z = -1.0 / zeta
    pref = np.exp(-zeta) / (2.0 * _SQRTPI)
    ai = pref * _horner(_U, z) / x ** 0.25
    aip = -pref * _horner(_V, z) * x ** 0.25
    return ai, aip


def _asymp_neg(x):
    # the even and odd sums are the real and imaginary parts of U(-i/zeta),
    # V(-i/zeta); the phase e^{i theta} turns them into Ai and Ai'
    t = -x
    zeta = (2.0 / 3.0) * t ** 1.5
    z = (-1.0 / zeta) * 1j
    with np.errstate(invalid="ignore"):   # zeta = inf at x = -inf
        theta = zeta - 0.25 * np.pi
        rot = np.cos(theta) + 1j * np.sin(theta)
    ai = (rot * _horner(_U, z)).real / (_SQRTPI * t ** 0.25)
    aip = (t ** 0.25 / _SQRTPI) * (rot * _horner(_V, z)).imag
    ai[t == np.inf] = 0.0   # the limit; Ai' has none and stays NaN
    return ai, aip


# ----------------------------------------------------------------------

def _ai_both(x):
    """(Ai, Ai') of an array, _BLOCK elements at a time (in flat order)
    into preallocated outputs: the series' temporaries stay block-sized
    whatever the size of x."""
    x = np.asarray(x, dtype=float)
    ai = np.empty(x.shape)
    aip = np.empty(x.shape)
    flat, flat_ai, flat_aip = x.reshape(-1), ai.reshape(-1), aip.reshape(-1)
    for s in range(0, flat.size, _BLOCK):
        blk = slice(s, s + _BLOCK)
        _ai_block(flat[blk], flat_ai[blk], flat_aip[blk])
    return ai, aip


def _ai_block(x, ai, aip):
    """Write (Ai, Ai') of the 1-d array x into ai and aip."""
    mid = np.abs(x) <= SEAM
    pos = x > SEAM
    neg = x < -SEAM
    if np.any(mid):
        ai[mid], aip[mid] = _series_branch(x[mid])
    if np.any(pos):
        ai[pos], aip[pos] = _asymp_pos(x[pos])
    if np.any(neg):
        ai[neg], aip[neg] = _asymp_neg(x[neg])
    # no branch takes NaN: NaN in, NaN out
    nan = np.isnan(x)
    ai[nan] = aip[nan] = np.nan


def _pair(x):
    """(Ai(x), Ai'(x)): Python floats for a scalar, arrays of x's shape
    otherwise.  A scalar inside the seam runs the series on floats."""
    if np.ndim(x) == 0:
        if abs(x) <= SEAM:
            return _series_branch(float(x))
        a, ap = _ai_both(np.atleast_1d(x))
        return float(a[0]), float(ap[0])
    a, ap = _ai_both(x)
    return a.reshape(np.shape(x)), ap.reshape(np.shape(x))


def airy_ai(x):
    """Airy function Ai(x); scalar or ndarray."""
    return _pair(x)[0]


def airy_ai_prime(x):
    """Derivative Ai'(x); scalar or ndarray."""
    return _pair(x)[1]


def airy_ai_pair(x):
    """(Ai(x), Ai'(x)) evaluated in a single pass."""
    return _pair(x)
