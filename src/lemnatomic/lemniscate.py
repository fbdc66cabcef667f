"""Arbitrary-precision numerics for the lemniscate sine.

The lemniscate sine sl is the odd solution of sl'' = -2 sl^3 with sl(0) = 0,
sl'(0) = 1, equivalently (sl')^2 = 1 - sl^4.  Evaluation is by Maclaurin
series after argument halving, followed by doublings through the addition law

    sl(u+v) = (sl u sl'v + sl v sl'u) / (1 + sl^2 u sl^2 v),

whose derivative component is obtained by differentiating along u with
D(s) = c, D(c) = -2 s^3.  The lemniscate constant satisfies
2*omega = pi / AGM(1, sqrt 2); it is computed as the zero of sl' near 1.311.

Arguments are reduced modulo the lattice L = (1+i)*omega*Z[i] before
evaluation, so sl_eval is L-periodic by construction; the reduced cell
contains no poles of the series/doubling chain.  Torsion values for odd beta
are taken at exact division points of the zero set 2*omega*Z[i], which is
what makes their elementary symmetric functions Gaussian integers.  With
w = (1+i)*omega/beta, the point lam*w sits at the Gaussian rational
lam/(2 beta) of the chain's period lattice 2(1+i)*omega*Z[i], so the even
lift of lam (re + im even) is reduced exactly, by dividing it by 2 beta in
Z[i], to r = a + bi with |r*w| <= 2*omega.

Addition-law table.  The even r is m*(1+i) + n*(1-i), with m = (a+b)/2 and
n = (a-b)/2, so with u = (1+i)*w = 2i*omega/beta, r*w = m*u - i*n*u.  sl is
Z[i]-linear on these points: sl(r*w) is the sum by the addition law of
sl(m*u) and sl(-i*n*u) = -i*sl(n*u), since sl' is even and
sl'(iz) = sl'(z).  So one series evaluation at u, per precision, seeds a
table T[k] = (sl(k*u), sl'(k*u)) for 0 <= k <= K, K the largest |m| or |n|
in use, built by balanced splits T[k] = T[k // 2] + T[k - k // 2]: T[k] is
ceil(log2 k) additions deep.  Each unit orbit costs at most one more
addition, an sl-only one (_add_sl: its sl' would never be read), and its
other three values follow from sl(iz) = i*sl(z).  The orbits, their (m, n)
and which of them are invertible are found once per beta, on the int pairs
(x, y) of the residues x + yi, with no Gaussian-integer arithmetic per
residue.

No addition meets a pole.  The poles of sl are (1+i)*omega times the odd
Gaussian integers, so x*w is a pole exactly when x is beta times an odd
Gaussian integer, and x is then odd, as beta is.  The addition law's
denominator vanishes only where the sum or the difference of its arguments
is a pole.  Every table entry k*u, every sum or difference of two entries
and the difference (m + i*n)*u of an orbit's two terms is a multiple of
(1+i)*w, so an even multiple of w, and so is an orbit's sum r*w: none is a
pole, and each lies at least |w| from one, its multiple of w differing from
a pole's by an odd, so nonzero, Gaussian integer.

The numeric lemnatomic polynomial uses the same symmetry: an orbit's four
roots v, iv, -v, -iv contribute the factor X^4 - v^4, so the product is
expanded as G(Y) = prod (Y - v^4) over one value per invertible orbit, with
phi/4 roots instead of phi, and G(X^4) is the polynomial.

Conjugate pairs.  A primary beta is an associate of its conjugate only when
it is rational, beta = +-q, and conjugation then permutes the residues mod
beta, the invertible ones among themselves.  sl has a real Taylor series,
so conj(sl z) = sl(conj z), and conj(S) = -i*S for S = (1+i)*omega/beta:
conj(sl(lam*S)) = -i*sl(conj(lam)*S), whose fourth power is
sl(conj(lam)*S)^4.  So the w = v^4 of the orbit of conj(lam) is conj(w),
and G, hence Lambda_beta, has rational integer coefficients.  _orbit_plan
pairs each invertible orbit with the orbit of its conjugate residues, once
per beta, and G is expanded in real fixed point: prod (Y^2 - 2 Re(w) Y +
|w|^2) over the pairs of two orbits, each quadratic read off both values,
times (Y - a)(Y - b) over the real w of the self-conjugate orbits, taken
two at a time.  Their count is even.  The paired orbits come two by two,
so the self-conjugate count has the parity of the phi/4 invertible orbits,
and 8 divides phi: phi(q) is the product of phi(p^k) = p^(2k-2) (p^2 - 1)
over the inert p and p^(2k-2) (p - 1)^2 over the split p, p^k exactly
dividing q, and p^2 - 1 and (p - 1)^2 are multiples of 8 for odd p.  Each
quadratic costs one truncation for |w|^2 and one per coefficient of the
product it multiplies into, c1*g[k-1] + c0*g[k] shifted once, where the
complex product's two linear factors cost two per part; Im G is exactly
zero and is not carried.  Every other beta keeps the complex schoolbook
product, one truncation per part per coefficient per factor.

Fixed point.  omega, the lattice reductions, the series, the doublings, the
table, the orbit rotation, the collision scan and the product G run on
Python ints.  At working precision `bits` a real x is the int x*2^F,
truncated, with F = bits + GUARD + HALVING_GUARD, and a complex value is a
pair of such ints.  A real product is one multiply and one shift right by
F; a complex quotient multiplies by the conjugate and divides each part by
the squared modulus.  Every operation errs by less than one unit 2^-F, an
absolute error, so a value of size M carries a finer relative error than a
float of bits + GUARD bits would.  The series coefficients are the exact
A_k = c_k / (4k+1)!, made once at import, so one set serves every precision.

Error budget.  omega is held to bits + GUARD bits, as lemniscate_constant
carries it, so an argument at an exact multiple of it reduces exactly; its
rounding moves the whole lattice and costs at most 2^9 units at
|z| <= 2*omega.  Newton's method on sl' finds it at max(F, 104) + GUARD
fraction bits, whatever bits is, its steps below that at rising precision,
and it is rounded to nearest: bit for bit pi / (2 AGM(1, sqrt 2)) rounded by
mpmath (tested from 1 to 8192 bits).  Against that omega an argument, the
floor of omega*2^F*g/N(beta) for a Gaussian integer g, errs by under one
unit.

A series evaluation halves z h times, to w = z/2^h with |w| <= 1/4, and on
until the last sl' term (4N+1) |A_N| |w|^(4N), N = SERIES_TERMS, is below
one unit 2^-G at G = F + h + HALVING_GUARD fraction bits, where w is exact.
Horner in w^4 sums both series, their coefficients truncated once at G,
over the terms of one unit or more within a few units.  The omitted tail is
under 1.001 times its first term: the term ratio is |w|^4 <= 2^-8 times
|A_(k+1) / A_k| (4k+5) / (4k+1), which is at most 0.15 for k >= 1 and
0.0873 from k = 32 (checked exactly to k = 150; it tends to
1/(4 omega^4) = 0.0846, the poles nearest 0 lying at sqrt(2)*omega).  The
h + HALVING_GUARD guard bits absorb the h doublings, each about doubling
the error carried in, so the value truncated to F errs by a few units
beyond |sl'(z)| times the argument's own error: within
|sl'(z)| * 2^-(bits + GUARD), the error of a floating evaluation at
bits + GUARD bits, where sl' is not near 0 (at most two units against the
kernel 300 bits finer, on seeded points with |re|, |im| <= 1.3 at 256 to
2048 bits).  Near a pole, where |sl'| ~ |sl|^2, that is large.

The table's seed u, built from the same omega, is rounded by under one
unit per part, and T[k] joins k copies of it by additions, so T[k] lies on
sl at an argument off k*u by k times that rounding plus a few units per
addition on its path, and its value errs by that argument error times
|sl'| <= 1 + |sl|^2.  Every table and orbit point lies at least |w| from
a pole, where |sl| stays of order K (at most 1.23*K, at -1-2i with K = 1,
measured on every primary beta of norm <= 400), so the error is of order
K^3 <= 2^(3 ceil(log2 K)) units.  The table therefore runs at the working
precision bits + 3*ceil(log2 K), 3 bits per level of depth, with
HALVING_GUARD covering the constant, and its orbit values are truncated to
the fraction bits of bits.  Against the series at bits + 96 with the same
omega, the worst orbit value then errs by 2^-(bits + GUARD + 5.2) (-1-2i
at 256 and 1024 bits, its one addition run at bits as K = 1; every primary
beta of norm <= 400 at 256, 512 and 1024 bits), within 2^-(bits + GUARD),
where a series evaluation at each orbit point errs by up to
2^-(bits + GUARD - 1.2) near a pole (-15-12i at 512 bits).

Beyond this budget nothing is assumed: a product is accepted only when
every coefficient lies within 2^-30 of a Gaussian integer and the rounding
survives one doubling of precision, and the pole floor 2^-(bits - GUARD) of
sl_eval and the addition law and the collision floor 2^-(bits // 2) are
compared exactly on the ints.  mpmath only places torsion_points and
carries the public types (BigComplex, SlPair), plain values with no
arithmetic: a caller computes on to_mpc() under its own mp.workprec.  It is
imported inside the functions that use it, so importing this module loads
no mpmath: only the mpmath-typed API does, and every command, the numeric
route included, starts and runs without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import TYPE_CHECKING, Optional, Union

from .errors import InputError, PoleProximity, PrecisionLoss, RoundingUnstable
from .gaussint import (
    GaussInt,
    ONE,
    ZERO,
    _check_beta,
    _round_half_down,
    as_gauss,
    gauss_gcd,
)
from .residue import phi_norm, residue_ring
from .zipoly import PolyZi

if TYPE_CHECKING:
    from mpmath import mpc, mpf

__all__ = [
    "GUARD",
    "PRECISION_CEILING",
    "BigComplex",
    "SlPair",
    "TorsionPoint",
    "NumericReport",
    "big_complex",
    "pair_defect",
    "lemniscate_constant",
    "sl_pair_add",
    "sl_eval",
    "torsion_points",
    "torsion_values",
    "lemnatomic_numeric",
]

# Guard bits appended to every working precision; the SlPair identity
# |c^2 - (1 - s^4)| stays below 2^-(precision_bits - GUARD).
GUARD = 32

# Fraction bits beyond bits + GUARD in the fixed-point kernel, and beyond
# F + h in a series evaluation that halves its argument h times; they absorb
# the error growth of the additions and of the halving-doubling chain.
HALVING_GUARD = 8

# Escalation ceiling for automatic precision doubling.
PRECISION_CEILING = 4096

Realish = Union[int, float, str]


@dataclass(frozen=True, slots=True)
class BigComplex:
    """re + i*im at precision_bits: a plain value; compute on to_mpc()."""

    re: mpf
    im: mpf
    precision_bits: int

    def to_mpc(self) -> mpc:
        from mpmath import mpc

        return mpc(self.re, self.im)

    def __str__(self) -> str:
        return str(self.to_mpc())


def _check_bits(precision_bits: int) -> None:
    """InputError for a precision below 1 bit, at every entry point that takes one."""
    if precision_bits < 1:
        raise InputError("precision_bits must be positive")


def big_complex(re: Realish = 0, im: Realish = 0, precision_bits: int = 256) -> BigComplex:
    _check_bits(precision_bits)
    from mpmath import mp, mpf

    with mp.workprec(precision_bits + GUARD):
        return BigComplex(mpf(re), mpf(im), precision_bits)


@dataclass(frozen=True, slots=True)
class SlPair:
    """Value pair (s, c) = (sl z, sl' z)."""

    s: BigComplex
    c: BigComplex

    @property
    def precision_bits(self) -> int:
        return min(self.s.precision_bits, self.c.precision_bits)


@dataclass(frozen=True, slots=True)
class TorsionPoint:
    """A beta-division point: lam a canonical residue mod beta, z = lam*S."""

    lam: GaussInt
    z: BigComplex


@dataclass(frozen=True, slots=True)
class NumericReport:
    """How a numeric lemnatomic polynomial was obtained."""

    precision_bits: int
    stability_bits: int
    max_rounding_error: float
    escalations: int


def pair_defect(pair: SlPair) -> mpf:
    """|c^2 - (1 - s^4)|; bounded by 2^-(precision_bits - GUARD) for healthy pairs."""
    from mpmath import mp

    bits = pair.precision_bits
    with mp.workprec(bits + GUARD):
        s = pair.s.to_mpc()
        c = pair.c.to_mpc()
        return abs(c * c - (1 - s**4))


def lemniscate_constant(precision_bits: int) -> BigComplex:
    """The lemniscate constant omega = pi / (2 AGM(1, sqrt 2))."""
    if precision_bits < 64:
        raise InputError("precision_bits must be at least 64")
    return _big_fx((_omega_fx(precision_bits), 0), _frac_bits(precision_bits), precision_bits)


# -- Maclaurin coefficients ---------------------------------------------------

# sl(z) = sum A_k z^(4k+1) is summed over k <= SERIES_TERMS at most; the
# kernel halves its argument until that is enough.
SERIES_TERMS = 32


def _taylor() -> tuple:
    """(c_k, (4k+1)!) for k <= SERIES_TERMS, A_k = c_k / (4k+1)! exactly.

    The c_k are integers: with sl^2 = sum d_m z^(4m+2) / (4m+2)!, the
    products of exponential generating functions give
    d_m = sum_i C(4m+2, 4i+1) c_i c_(m-i), and sl'' = -2 sl^3 gives
    c_(m+1) = -2 sum_t C(4m+3, 4t+2) d_t c_(m-t)."""
    c, d = [1], []
    for m in range(SERIES_TERMS):
        d.append(sum(math.comb(4 * m + 2, 4 * i + 1) * c[i] * c[m - i] for i in range(m + 1)))
        c.append(-2 * sum(math.comb(4 * m + 3, 4 * t + 2) * d[t] * c[m - t] for t in range(m + 1)))
    return tuple((ck, math.factorial(4 * k + 1)) for k, ck in enumerate(c))


_TAYLOR = _taylor()

# log2 of an upper bound on (4N+1) |A_N| = |c_N| / (4N)!, N = SERIES_TERMS.
_TAIL_LOG2 = _TAYLOR[-1][0].bit_length() - math.factorial(4 * SERIES_TERMS).bit_length() + 1


# -- fixed-point kernel -------------------------------------------------------
#
# A pair (re, im) of ints stands for (re + i*im) * 2^-F.


def _frac_bits(bits: int) -> int:
    return bits + GUARD + HALVING_GUARD


def _fx(x: mpf, F: int) -> int:
    """x * 2^F truncated toward zero."""
    sign, man, exp, _ = x._mpf_
    e = exp + F
    n = man << e if e >= 0 else man >> -e
    return -n if sign else n


def _big_fx(z: tuple, F: int, bits: int) -> BigComplex:
    """The fixed-point pair z as a BigComplex, exactly."""
    from mpmath import mp
    from mpmath.libmp import from_man_exp

    re, im = (mp.make_mpf(from_man_exp(x, -F)) for x in z)
    return BigComplex(re, im, bits)


def _cmul(a: tuple, b: tuple, F: int) -> tuple:
    ar, ai = a
    br, bi = b
    return (ar * br - ai * bi) >> F, (ar * bi + ai * br) >> F


def _pow4(a: tuple, F: int) -> tuple:
    t = _cmul(a, a, F)
    return _cmul(t, t, F)


def _cdiv(a: tuple, b: tuple, F: int) -> tuple:
    ar, ai = a
    br, bi = b
    q = br * br + bi * bi
    return ((ar * br + ai * bi) << F) // q, ((ai * br - ar * bi) << F) // q


def _denominator(p: tuple, F: int, bits: int) -> tuple:
    """1 + p, the addition law's denominator for p = sl^2 u sl^2 v; raises
    PrecisionLoss when it falls below 2^-(bits - GUARD)."""
    den = ((1 << F) + p[0], p[1])
    floor = 1 << (F - bits + GUARD)
    if den[0] * den[0] + den[1] * den[1] < floor * floor:
        raise PrecisionLoss("addition-law denominator below the precision floor")
    return den


def _add_sl(s1: tuple, c1: tuple, s2: tuple, c2: tuple, F: int, bits: int) -> tuple:
    """(sl(u+v), sl^2 u, sl^2 v, 1 + sl^2 u sl^2 v): the addition law's sl
    half, 5 products and one division, with the terms _add_fx reuses."""
    q1 = _cmul(s1, s1, F)
    q2 = _cmul(s2, s2, F)
    den = _denominator(_cmul(q1, q2, F), F, bits)
    a = _cmul(s1, c2, F)
    b = _cmul(s2, c1, F)
    return _cdiv((a[0] + b[0], a[1] + b[1]), den, F), q1, q2, den


def _add_fx(s1: tuple, c1: tuple, s2: tuple, c2: tuple, F: int, bits: int) -> tuple:
    """The addition law on fixed-point pairs: _add_sl, then sl'."""
    s, q1, q2, den = _add_sl(s1, c1, s2, c2, F, bits)
    cc = _cmul(c1, c2, F)
    t = _cmul(_cmul(q1, s1, F), s2, F)
    u = _cmul(_cmul(s1, c1, F), q2, F)
    # c = (num_d*den - num*den_d) / den^2 = (num_d - s*den_d) / den with
    # num_d = c1 c2 - 2 s1^3 s2 and den_d = 2 s1 c1 s2^2, the derivatives along u.
    v = _cmul(s, u, F)
    c = _cdiv((cc[0] - 2 * t[0] - 2 * v[0], cc[1] - 2 * t[1] - 2 * v[1]), den, F)
    return s, c


def _double_fx(s: tuple, c: tuple, F: int, bits: int) -> tuple:
    """_add_fx(s, c, s, c, F, bits) with each shared product taken once:
    sl 2u = 2 s c / (1 + s^4), sl' 2u = (c^2 - 2 s^4 - 2 s^3 c sl 2u) / (1 + s^4)."""
    q = _cmul(s, s, F)
    p = _cmul(q, q, F)
    den = _denominator(p, F, bits)
    sc = _cmul(s, c, F)
    cc = _cmul(c, c, F)
    s2 = _cdiv((2 * sc[0], 2 * sc[1]), den, F)
    v = _cmul(s2, _cmul(sc, q, F), F)
    return s2, _cdiv((cc[0] - 2 * p[0] - 2 * v[0], cc[1] - 2 * p[1] - 2 * v[1]), den, F)


# Keyed by G and the bound q on |w|^2: a working precision uses a few q, and
# an escalation round a few G.
@lru_cache(maxsize=64)
def _series_terms(G: int, q: int) -> tuple:
    """(A_k, (4k+1) A_k) * 2^G, floored, highest k first, for Horner, over
    the k before the first whose sl' term (4k+1) |A_k| |w|^(4k) lies below
    one unit 2^-G when |w|^2 < 2^-q."""
    terms = []
    for k, (c, f) in enumerate(_TAYLOR):
        f4 = f // (4 * k + 1)  # (4k)!
        if abs(c) << G < f4 << (2 * q * k):
            break
        terms.append(((c << G) // f, (c << G) // f4))
    return tuple(reversed(terms))


def _sl_fx(z: tuple, bits: int) -> tuple:
    """(sl z, sl' z) on fixed-point pairs, no lattice reduction; |z| should
    be cell-sized.  Halve h times to w (see the module docstring), sum both
    series by Horner in w^4 at G fraction bits, double back, truncate to F."""
    F = _frac_bits(bits)
    x, y = z
    norm = x * x + y * y
    h = 0
    while norm > 1 << (2 * (F + h) - 4):
        h += 1
    q = 2 * (F + h) - norm.bit_length()  # |w|^2 < 2^-q
    while _TAIL_LOG2 - 2 * SERIES_TERMS * q > -(F + h + HALVING_GUARD):
        h += 1
        q += 2
    G = F + h + HALVING_GUARD
    w = (x << HALVING_GUARD, y << HALVING_GUARD)
    ur, ui = _pow4(w, G)
    terms = _series_terms(G, q)
    sr, cr = terms[0]
    si = ci = 0
    for a, b in terms[1:]:
        sr, si = ((sr * ur - si * ui) >> G) + a, (sr * ui + si * ur) >> G
        cr, ci = ((cr * ur - ci * ui) >> G) + b, (cr * ui + ci * ur) >> G
    s, c = _cmul((sr, si), w, G), (cr, ci)
    for _ in range(h):
        s, c = _double_fx(s, c, G, bits)
    extra = G - F
    return (s[0] >> extra, s[1] >> extra), (c[0] >> extra, c[1] >> extra)


# One entry per precision in use.
@lru_cache(maxsize=None)
def _omega_fx(bits: int) -> int:
    """omega rounded to nearest at bits + GUARD significant bits, the value
    lemniscate_constant carries, as a fixed-point int at _frac_bits(bits).

    Newton's method on sl', x <- x + sl'(x) / (2 sl(x)^3) as sl'' = -2 sl^3,
    converges cubically to omega (sl''' = -6 sl^2 sl' vanishes there too).
    It starts from a float good to 52 bits, and each step below
    W = max(F, 104) + GUARD fraction bits runs at a third of the next one's
    fraction bits plus 32, the last of them at W/2 + 32, so that its error
    lies below 2^-(W/2).  At W it steps until a step falls below 2^-(W/2),
    which the first step there does."""
    W = _frac_bits(max(bits, 64) + GUARD)
    ladder = [W]
    Q = W // 2 + 32
    while Q < ladder[-1]:
        ladder.append(Q)
        if Q <= 160:  # one step from 52 bits reaches it
            break
        Q = Q // 3 + 32
    x, P = int(1.3110287771460599 * (1 << 52)), 52
    for Q in reversed(ladder):
        x <<= Q - P
        P = Q
        while True:
            (s, _), (c, _) = _sl_fx((x, 0), Q - GUARD - HALVING_GUARD)
            step = (c << (3 * Q)) // (2 * s * s * s)
            x += step
            if Q < W or abs(step) < 1 << (W // 2):
                break
    p = bits + GUARD - 1  # the fraction bits of bits + GUARD significant bits, as 1 < omega < 2
    return ((x + (1 << (W - p - 1))) >> (W - p)) << (_frac_bits(bits) - p)


def sl_pair_add(a: SlPair, b: SlPair) -> SlPair:
    """Addition law for (sl, sl') pairs; raises PrecisionLoss near its poles."""
    bits = min(a.precision_bits, b.precision_bits)
    F = _frac_bits(bits)
    s1, c1, s2, c2 = ((_fx(v.re, F), _fx(v.im, F)) for v in (a.s, a.c, b.s, b.c))
    s, c = _add_fx(s1, c1, s2, c2, F, bits)
    return SlPair(s=_big_fx(s, F, bits), c=_big_fx(c, F, bits))


def sl_eval(z: BigComplex, precision_bits: Optional[int] = None) -> SlPair:
    """(sl z, sl' z) after reduction modulo L = Z*(1+i)*omega + Z*(1-i)*omega,
    coordinates rounded half toward -infinity; raises PoleProximity when the
    reduced argument lies within 2^-(bits - GUARD) of a pole (+-1 +- i)*omega."""
    bits = z.precision_bits if precision_bits is None else precision_bits
    _check_bits(bits)
    F = _frac_bits(bits)
    om = _omega_fx(bits)
    x, y = _fx(z.re, F), _fx(z.im, F)
    m = _round_half_down(x + y, 2 * om)
    n = _round_half_down(x - y, 2 * om)
    x, y = x - (m + n) * om, y - (m - n) * om
    # The reduced cell |x| + |y| <= omega has its nearest pole in its own quadrant.
    floor = 1 << (F - bits + GUARD)
    if (abs(x) - om) ** 2 + (abs(y) - om) ** 2 < floor * floor:
        raise PoleProximity("argument reduces to within the precision floor of a pole")
    s, c = _sl_fx((x, y), bits)
    return SlPair(s=_big_fx(s, F, bits), c=_big_fx(c, F, bits))


# -- torsion ------------------------------------------------------------------


def _unit_orbits(ring) -> list:
    """Partition the nonzero residues into orbits [lam, i*lam, -lam, -i*lam],
    each listed from its smallest canonical representative.

    Runs on the (x, y) of the representatives x + yi of the ring's echelon
    basis: i*(x + yi) = -y + xi is reduced as canonical_rep reduces it, and a
    bytearray indexed y*n1 + x marks the residues already in an orbit, so
    the scan jumps to the next residue not yet seen.  The orbits come back
    as GaussInt lists, in the order of their first residue's (im, re)."""
    n1, n2, shear = ring.n1, ring.n2, ring.shear
    seen = bytearray(ring.size)
    seen[0] = 1  # the zero residue
    orbits = []
    k = 0
    while (k := seen.find(0, k)) >= 0:
        y, x = divmod(k, n1)
        orbit = [(x, y)]
        for _ in range(3):
            q, im = divmod(x, n2)
            x, y = (-y - q * shear) % n1, im
            orbit.append((x, y))
        first = orbit.index(min(orbit))
        orbit = orbit[first:] + orbit[:first]
        for x, y in orbit:
            seen[y * n1 + x] = 1
        orbits.append([GaussInt(x, y) for x, y in orbit])
    return orbits


# Keyed by the ring and the generator class; the numeric route asks for each
# beta at two or more precisions, so the plan is built once per beta.
@lru_cache(maxsize=32)
def _orbit_plan(ring, mult: GaussInt) -> tuple:
    """(plan, K, pairs): per unit orbit (orbit, (m, n), invertible), where
    r = m(1+i) + n(1-i) is the even lift of the orbit's first residue times
    mult reduced mod 2 beta, and K is the largest |m| or |n|.

    It runs on ints: the even lift adds beta, which is odd, to a residue
    whose re + im is odd; r is the remainder of gauss_divmod by 2 beta, its
    quotient rounded ties toward -infinity; and a residue is invertible when
    none of ring.primes divides it, as in ResidueRing.is_invertible.

    pairs is None unless beta is rational (beta.im == 0, so conjugation
    permutes the residues): then it holds (i, j), i <= j, for each invertible
    orbit plan[i], plan[j] being the orbit of its conjugate residues, and
    i == j for an orbit that is its own conjugate."""
    beta = ring.modulus
    br, bi = beta.re, beta.im
    mr, mi = mult.re, mult.im
    dr, di = 2 * br, 2 * bi
    dn = dr * dr + di * di
    primes = [(p.value.re, p.value.im, p.norm) for p in ring.primes]
    orbits = _unit_orbits(ring)
    plan = []
    for orbit in orbits:
        x, y = orbit[0].re, orbit[0].im
        invertible = not any((x * a + y * b) % p == 0 and (y * a - x * b) % p == 0 for a, b, p in primes)
        if (x + y) % 2:
            x, y = x + br, y + bi
        x, y = x * mr - y * mi, x * mi + y * mr
        tr, ti = x * dr + y * di, y * dr - x * di  # (x + yi) * conj(2 beta)
        qr, qi = -((dn - 2 * tr) // (2 * dn)), -((dn - 2 * ti) // (2 * dn))
        x, y = x - qr * dr + qi * di, y - qr * di - qi * dr
        plan.append((orbit, ((x + y) // 2, (x - y) // 2), invertible))
    K = max(abs(x) for _, mn, _ in plan for x in mn)
    pairs = None
    if bi == 0:
        n1, n2, shear = ring.n1, ring.n2, ring.shear
        where = {(orbit[0].re, orbit[0].im): k for k, orbit in enumerate(orbits)}
        pairs = []
        for i, (orbit, _, invertible) in enumerate(plan):
            if not invertible:
                continue
            # conjugation maps the orbit onto an orbit, whose first residue is
            # the least of the conjugates, reduced as canonical_rep does
            conj = []
            for lam in orbit:
                q, y = divmod(-lam.im, n2)
                conj.append(((lam.re - q * shear) % n1, y))
            if (j := where[min(conj)]) >= i:
                pairs.append((i, j))
        pairs = tuple(pairs)
    return tuple(plan), K, pairs


def _sl_table(u: tuple, K: int, tbits: int, bits: int) -> list:
    """[(sl k*u, sl' k*u) for k = 0..K] at the fixed point of tbits: one
    series evaluation at u, then T[k] = T[k // 2] + T[k - k // 2] by the
    addition law, whose floor stays at bits."""
    F = _frac_bits(tbits)
    T = [((0, 0), (1 << F, 0)), _sl_fx(u, tbits)]
    for k in range(2, K + 1):
        T.append(_add_fx(*T[k // 2], *T[k - k // 2], F, bits))
    return T


def _lookup(T: list, m: int, n: int, F: int, bits: int) -> tuple:
    """sl z at z = m*u - i*n*u from the table by sl(-z) = -sl(z) and
    sl(iz) = i sl(z), sl' being even and invariant under z -> iz; one
    sl-only addition (_add_sl) when neither m nor n is zero."""
    s, c = T[abs(m)]
    if m < 0:
        s = (-s[0], -s[1])
    if n == 0:
        return s
    t, d = T[abs(n)]
    t = (t[1], -t[0]) if n > 0 else (-t[1], t[0])
    if m == 0:
        return t
    return _add_sl(s, c, t, d, F, bits)[0]


def torsion_points(beta, precision_bits: int = 256) -> tuple:
    """All N(beta) division points lam*S, S = (1+i)*omega/beta, lam canonical."""
    from mpmath import mp, mpc

    beta = _check_beta(beta)
    _check_bits(precision_bits)
    ring = residue_ring(beta)
    bits = precision_bits
    om = _big_fx((_omega_fx(bits), 0), _frac_bits(bits), bits).re
    with mp.workprec(bits + GUARD):
        s_gen = mpc(om, om) / mpc(beta.re, beta.im)
        pts = []
        for lam in ring.representatives():
            z = s_gen * mpc(lam.re, lam.im)
            pts.append(TorsionPoint(lam=lam, z=BigComplex(z.real, z.imag, bits)))
        return tuple(pts)


def _rotations(v: tuple) -> list:
    """[v, iv, -v, -iv], the values of a unit orbit in its listed order."""
    vr, vi = v
    return [(vr, vi), (-vi, vr), (-vr, -vi), (vi, -vr)]


def _orbit_values(beta: GaussInt, plan: tuple, K: int, bits: int) -> list:
    """v = sl(lam*mult*S) for each entry of _orbit_plan(ring, mult), lam the
    orbit's first residue, as a fixed-point pair at _frac_bits(bits);
    PrecisionLoss when two of the N(beta) values, 0 included, collide.

    With w = S = (1+i)*omega/beta, u = (1+i)*w and r = m(1+i) + n(1-i) the
    orbit's reduced lift, v = sl(m*u - i*n*u): at most one sl-only addition
    of two table entries (_lookup), as no sl' of an orbit value is used.
    """
    norm = beta.norm()
    g = GaussInt(2 * beta.im, 2 * beta.re)  # 2i*conj(beta), u = omega*g/norm
    # 3 guard bits per level of the table's depth ceil(log2 K); see the
    # module docstring.
    tbits = bits + 3 * (K - 1).bit_length()
    tF, F = _frac_bits(tbits), _frac_bits(bits)
    om = _omega_fx(bits) << (tF - F)
    T = _sl_table((om * g.re // norm, om * g.im // norm), K, tbits, bits)
    out = []
    for _, (m, n), _ in plan:
        s = _lookup(T, m, n, tF, bits)
        out.append((s[0] >> (tF - F), s[1] >> (tF - F)))
    _check_distinct([(0, 0)] + [u for v in out for u in _rotations(v)], F, bits)
    return out


def torsion_values(beta, precision_bits: int = 256, generator_class: Optional[GaussInt] = None) -> dict:
    """Map lam -> sl(lam*S) over all canonical residues lam mod beta.

    The remaining three values of each orbit follow from sl(i z) = i sl(z).
    generator_class multiplies S by an invertible class (the value set is
    then permuted, not changed).
    """
    beta = _check_beta(beta)
    _check_bits(precision_bits)
    ring = residue_ring(beta)
    mult = ONE if generator_class is None else as_gauss(generator_class)
    if not gauss_gcd(mult, beta).is_unit():
        raise InputError("generator_class must be invertible mod beta")
    bits = precision_bits
    F = _frac_bits(bits)
    plan, K, _ = _orbit_plan(ring, mult)
    values = {ring.canonical_rep(ZERO): (0, 0)}
    for (orbit, _, _), v in zip(plan, _orbit_values(ring.modulus, plan, K, bits)):
        values.update(zip(orbit, _rotations(v)))
    return {lam: _big_fx(values[lam], F, bits) for lam in ring.representatives()}


def _check_distinct(values, F: int, bits: int) -> None:
    """Raise PrecisionLoss when two fixed-point values lie closer than 2^-(bits // 2)."""
    floor = 1 << (F - bits // 2)
    floor_sq = floor * floor
    items = sorted(values)
    n = len(items)
    for i in range(n):
        xr, xi = items[i]
        for j in range(i + 1, n):
            yr, yi = items[j]
            dr = yr - xr
            if dr > floor:
                break
            di = yi - xi
            if dr * dr + di * di < floor_sq:
                raise PrecisionLoss("torsion values collide at this precision")


def _expand_complex(fourth: list, F: int) -> tuple:
    """(re, im): G(Y) = prod (Y - w) over the fixed-point pairs w, its
    coefficients lowest degree first, by the schoolbook product, one
    truncation per part per coefficient per factor."""
    re, im = [1 << F], [0]
    for wr, wi in fourth:
        re.append(re[-1])
        im.append(im[-1])
        for k in range(len(re) - 2, 0, -1):
            r, i = re[k], im[k]
            re[k] = re[k - 1] - ((wr * r - wi * i) >> F)
            im[k] = im[k - 1] - ((wr * i + wi * r) >> F)
        r, i = re[0], im[0]
        re[0] = -((wr * r - wi * i) >> F)
        im[0] = -((wr * i + wi * r) >> F)
    return re, im


def _expand_real(pairs: tuple, values: list, F: int) -> list:
    """G(Y) = prod (Y - v^4) over the invertible orbits of a rational beta,
    from _orbit_plan's conjugate pairs, as real fixed-point coefficients,
    lowest degree first.

    A pair (i, j), i < j, gives Y^2 - (a + b) Y + Re(a*b) from a = w_i and
    b = w_j = conj(a), so a + b = 2 Re(a) and a*b = |a|^2, read off both
    values so that a wrong partner shows in G.  The self-conjugate orbits'
    real values Re(w) are taken two at a time, as (Y - a)(Y - b); their
    count is even (see the module docstring)."""
    quads, reals = [], []
    for i, j in pairs:
        ar, ai = _pow4(values[i], F)
        if i == j:
            reals.append(ar)
            continue
        br, bi = _pow4(values[j], F)
        quads.append((-(ar + br), (ar * br - ai * bi) >> F))
    quads += [(-(a + b), (a * b) >> F) for a, b in zip(reals[::2], reals[1::2])]
    g = [1 << F]
    for c1, c0 in quads:
        g = [a + ((c1 * b + c0 * c) >> F) for a, b, c in zip([0, 0, *g], [0, *g, 0], [*g, 0, 0])]
    return g


def _round_g(re: list, im, F: int) -> tuple:
    """G's fixed-point coefficients rounded to Gaussian integers at X^(4k);
    every other coefficient is exactly zero.  Returns the polynomial and the
    largest rounding error."""
    half = 1 << (F - 1)
    rounded = [ZERO] * (4 * len(re) - 3)
    worst = 0  # largest squared rounding error, scaled by 2^(2F)
    for k, (r, i) in enumerate(zip(re, im)):
        gr, gi = (r + half) >> F, (i + half) >> F
        dr, di = r - (gr << F), i - (gi << F)
        worst = max(worst, dr * dr + di * di)
        rounded[4 * k] = GaussInt(gr, gi)
    return PolyZi.make(rounded), math.sqrt(worst / (1 << (2 * F)))


def _numeric_poly_at(beta: GaussInt, ring, bits: int) -> tuple:
    """Expand prod (X^4 - v^4) over invertible unit orbits; round to Z[i] coefficients.

    An orbit's factor (X - v)(X - iv)(X + v)(X + iv) is X^4 - v^4, so
    G(Y) = prod (Y - v^4) is expanded in fixed point and rounded, and its
    coefficients go to X^(4k).  A rational beta expands G in real fixed
    point over conjugate pairs (_expand_real), its imaginary part being
    exactly zero; every other beta by the complex schoolbook product.
    Returns the polynomial and the largest rounding error.
    """
    F = _frac_bits(bits)
    plan, K, pairs = _orbit_plan(ring, ONE)
    values = _orbit_values(ring.modulus, plan, K, bits)
    if pairs is not None:
        return _round_g(_expand_real(pairs, values, F), repeat(0), F)
    fourth = [_pow4(v, F) for (_, _, invertible), v in zip(plan, values) if invertible]
    return _round_g(*_expand_complex(fourth, F), F)


def _attempt(beta: GaussInt, ring, bits: int) -> tuple:
    """_numeric_poly_at, with a precision failure read as an infinite error."""
    try:
        return _numeric_poly_at(beta, ring, bits)
    except PrecisionLoss:
        return None, math.inf


def _check_precision(precision_bits: int) -> None:
    """InputError for a start below 1 bit or above PRECISION_CEILING, read at call time."""
    _check_bits(precision_bits)
    if precision_bits > PRECISION_CEILING:
        raise InputError(
            f"precision_bits = {precision_bits} is above the ceiling of {PRECISION_CEILING} bits"
        )


def lemnatomic_numeric(beta, precision_bits: int = 256):
    """Numeric lemnatomic polynomial with its computation report.

    Expands prod (X^4 - sl(lam*S)^4) over the unit orbits {lam, i*lam, -lam,
    -i*lam} of invertible lam, from the addition-law table, rounds the
    coefficients to Gaussian integers, and accepts only when every rounding
    error is below 2^-30 and the rounded polynomial survives one precision
    doubling.  Precision escalates by doubling up to PRECISION_CEILING; each
    precision is computed at most once, the doubled result becoming the next
    round's lower one, and the doubling is skipped when the lower result
    already misses the tolerance.  A start from 1 to 63 bits runs at 64; one
    below 1 bit or above the ceiling is an InputError.
    """
    beta = _check_beta(beta)
    _check_precision(precision_bits)
    ring = residue_ring(beta)
    bits = max(64, precision_bits)
    tolerance = 2.0**-30
    escalations = 0
    poly_lo, err_lo = _attempt(beta, ring, bits)
    while True:
        hi = None
        if err_lo < tolerance:
            hi = _attempt(beta, ring, 2 * bits)
            poly_hi, err_hi = hi
            if err_hi < tolerance and poly_hi == poly_lo:
                _validate_numeric(beta, poly_lo)
                report = NumericReport(
                    precision_bits=bits,
                    stability_bits=2 * bits,
                    max_rounding_error=max(err_lo, err_hi),
                    escalations=escalations,
                )
                return poly_lo, report
        if 2 * bits > PRECISION_CEILING:
            raise RoundingUnstable(
                f"no stable Gaussian-integer rounding for beta={beta} up to {PRECISION_CEILING} bits"
            )
        bits *= 2
        escalations += 1
        poly_lo, err_lo = _attempt(beta, ring, bits) if hi is None else hi


def _validate_numeric(beta: GaussInt, poly: PolyZi) -> None:
    want = phi_norm(beta)
    if poly.degree() != want:
        raise RoundingUnstable(f"degree {poly.degree()} != phi_norm {want} for beta={beta}")
    if not poly.is_monic():
        raise RoundingUnstable(f"numeric polynomial for beta={beta} is not monic")
    if poly[0] == ZERO:
        raise RoundingUnstable(f"numeric polynomial for beta={beta} has zero constant term")
