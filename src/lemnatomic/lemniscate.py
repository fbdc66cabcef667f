"""Arbitrary-precision numerics for the lemniscate sine.

The lemniscate sine sl is the odd solution of sl'' = -2 sl^3 with sl(0) = 0,
sl'(0) = 1, equivalently (sl')^2 = 1 - sl^4.  Evaluation is by Maclaurin
series after argument halving, followed by doublings through the addition law

    sl(u+v) = (sl u sl'v + sl v sl'u) / (1 + sl^2 u sl^2 v),

whose derivative component is obtained by differentiating along u with
D(s) = c, D(c) = -2 s^3.  The lemniscate constant satisfies
2*omega = pi / AGM(1, sqrt 2).

Arguments are reduced modulo the lattice L = (1+i)*omega*Z[i] before
evaluation, so sl_eval is L-periodic by construction; the reduced cell
contains no poles of the series/doubling chain.  Torsion values for odd beta
are taken at exact division points of the zero set 2*omega*Z[i], which is
what makes their elementary symmetric functions Gaussian integers.  With
w = (1+i)*omega/beta, the point lam*w sits at the Gaussian rational
lam/(2 beta) of the chain's period lattice 2(1+i)*omega*Z[i], so the even
lift of lam (re + im even) is reduced exactly, by dividing it by 2 beta in
Z[i], to r = a + bi with |r*w| <= 2*omega.

Addition-law table.  sl is Z[i]-linear on these points: sl(r*w) is the sum
by the addition law of sl(a*w) and sl(i*b*w) = i*sl(b*w), since sl' is even
and sl'(iz) = sl'(z).  So one series evaluation at w, per precision, seeds
a table T[k] = (sl(k*w), sl'(k*w)) for 0 <= k <= K, K the largest |a| or
|b| in use, built by balanced splits T[k] = T[k // 2] + T[k - k // 2]:
T[k] is ceil(log2 k) additions deep.  Each unit orbit costs one more
addition, and its other three values follow from sl(iz) = i*sl(z).

Pole rule.  The poles of sl are (1+i)*omega times the odd Gaussian
integers, so x*w is a pole exactly when beta | x with an odd quotient, and
the addition law's denominator vanishes only where the sum or the
difference of its arguments is a pole.  r*w is no pole, as lam is nonzero
mod beta, and for a split r = x + y neither is (x - y)*w: r is even, so
x - y is too.  A table index k <= max(|a|, |b|) is a pole only for
rational beta = +-q, at k = q: any other beta is c*gamma with c rational
and gamma a primitive non-unit, and beta | k needs c*N(gamma) | k, so
k >= sqrt(5)*|beta|, beyond the sqrt(2)*|beta| a part of r reaches.  An
orbit with a = +-q takes two additions, (a -+ 1)*w + (+-1 + bi)*w, and
b = +-q likewise, so the table up to K, the largest part in use, holds no
pole.  The split is chosen by this integer test once per beta, with the
orbits, their reduced lifts and which of them are invertible.

The numeric lemnatomic polynomial uses the same symmetry: an orbit's four
roots v, iv, -v, -iv contribute the factor X^4 - v^4, so the product is
expanded as G(Y) = prod (Y - v^4) over one value per invertible orbit, with
phi/4 roots instead of phi, and G(X^4) is the polynomial.

Fixed point.  The lattice reductions, the series, the doublings, the table,
the orbit rotation, the collision scan and the product G run on Python
ints.  At working precision `bits` a real x is the int x*2^F, truncated,
with F = bits + GUARD + HALVING_GUARD, and a complex value is a pair of such
ints.  A real product is one multiply and one shift right by F; a complex
quotient multiplies by the conjugate and divides each part by the squared
modulus.  Every operation errs by less than one unit 2^-F, an absolute
error, so a value of size M carries a finer relative error than a float of
bits + GUARD bits would.

Error budget.  omega is held to bits + GUARD bits, as lemniscate_constant
carries it, so an argument at an exact multiple of it reduces exactly; its
rounding moves the whole lattice and costs at most 2^9 units at
|z| <= 2*omega.  Against that omega an argument, the floor of
omega*2^F*g/N(beta) for a Gaussian integer g, errs by under one unit.
Halving to |w| <= 1/4 truncates w by at most one unit, and Horner in
u = w^4 (|u| <= 2^-8) sums the series within a few units.  Each doubling
by the addition law about doubles the error carried in.  An argument of
the reduced cell (|z| <= 2*omega) needs at most four halvings, |z| <= 8 at
most five, so HALVING_GUARD = 8 bits keep the doubled value within
|sl'(z)| * 2^-(bits + GUARD), the error of a floating evaluation at
bits + GUARD bits; near a pole, where |sl'| ~ |sl|^2, that is large.  The
series coefficients come from mpmath at bits + GUARD bits, up to the first
term worth less than one unit at |u| = 2^-8, and are converted once per
precision from the set for that precision rounded up to a multiple of 32.

The table's seed w, built from the same omega, is rounded by under one
unit per part, and T[k] joins k copies of it by additions, so T[k] lies on
sl at an argument off k*w by k times that rounding plus a few units per
addition on its path, and its value errs by that argument error times
|sl'| <= 1 + |sl|^2.  Every table and orbit point lies at least |w| from
a pole (its Gaussian multiple of w differs from a pole's by a nonzero
one), where |sl| stays below K (at most 0.8*K, measured on every primary
beta of norm <= 400), so the error is of order K^3 <= 2^(3 ceil(log2 K))
units.  The table therefore runs at the working precision
bits + 3*ceil(log2 K), 3 bits per level of depth, with HALVING_GUARD
covering the constant, and its orbit values are truncated to the fraction
bits of bits.  Against the series at bits + 96 with the same omega, the
worst orbit value then errs by 2^-(bits + GUARD + 4) (every primary beta
of norm <= 400 at 256 bits, 46 sampled of norm 400 to 2000 at 256, 512
and 1024), within 2^-(bits + GUARD), where a series evaluation at each
orbit point errs by up to 2^-(bits + GUARD - 5) near a pole (-43 at 1024
bits).

Beyond this budget nothing is assumed: a product is accepted only when
every coefficient lies within 2^-30 of a Gaussian integer and the rounding
survives one doubling of precision, and the pole floor 2^-(bits - GUARD) of
sl_eval and the addition law and the collision floor 2^-(bits // 2) are
compared exactly on the ints.  mpmath computes omega and the series
coefficients, places torsion_points, and carries the public types.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp

from .errors import InputError, PoleProximity, PrecisionLoss, RoundingUnstable
from .gaussint import (
    GaussInt,
    ONE,
    ZERO,
    _check_beta,
    _round_half_down,
    as_gauss,
    gauss_divmod,
    gauss_gcd,
)
from .residue import phi_norm, residue_ring
from .zipoly import PolyZi

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

# Fraction bits beyond bits + GUARD in the fixed-point kernel; they absorb
# the error growth of the halving-doubling chain.
HALVING_GUARD = 8

# Escalation ceiling for automatic precision doubling.
PRECISION_CEILING = 4096

Realish = Union[int, float, str]


@dataclass(frozen=True, slots=True)
class BigComplex:
    """Complex number with explicit precision; operations keep the coarsest."""

    re: mpf
    im: mpf
    precision_bits: int

    def _coerce(self, other) -> "BigComplex":
        if isinstance(other, BigComplex):
            return other
        if isinstance(other, GaussInt):
            return big_complex(other.re, other.im, self.precision_bits)
        if isinstance(other, (int, float, mpf)):
            return big_complex(other, 0, self.precision_bits)
        if isinstance(other, (complex, mpc)):
            return big_complex(other.real, other.imag, self.precision_bits)
        return NotImplemented

    def _binary(self, other, op) -> "BigComplex":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        bits = min(self.precision_bits, other.precision_bits)
        with mp.workprec(bits + GUARD):
            z = op(mpc(self.re, self.im), mpc(other.re, other.im))
        return BigComplex(z.real, z.imag, bits)

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binary(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binary(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return self._binary(other, lambda a, b: b / a)

    def __neg__(self):
        return BigComplex(-self.re, -self.im, self.precision_bits)

    def conjugate(self) -> "BigComplex":
        return BigComplex(self.re, -self.im, self.precision_bits)

    def __abs__(self) -> mpf:
        with mp.workprec(self.precision_bits + GUARD):
            return abs(mpc(self.re, self.im))

    def to_mpc(self) -> mpc:
        return mpc(self.re, self.im)

    def __str__(self) -> str:
        return str(mpc(self.re, self.im))


def big_complex(re: Realish = 0, im: Realish = 0, precision_bits: int = 256) -> BigComplex:
    if precision_bits < 1:
        raise InputError("precision_bits must be positive")
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
    bits = pair.precision_bits
    with mp.workprec(bits + GUARD):
        s = pair.s.to_mpc()
        c = pair.c.to_mpc()
        return abs(c * c - (1 - s**4))


@lru_cache(maxsize=None)
def _omega(bits: int) -> mpf:
    """omega rounded to bits bits."""
    # AGM(1, sqrt 2) by the defining iteration; quadrature serves as the
    # independent oracle in the test suite, not here.
    with mp.workprec(bits + 2 * GUARD):
        a = mpf(1)
        b = mp.sqrt(2)
        eps = mpf(2) ** (-(bits + GUARD))
        while abs(a - b) > eps:
            a, b = (a + b) / 2, mp.sqrt(a * b)
        omega = mp.pi / (2 * a)
    with mp.workprec(bits):
        return +omega


def lemniscate_constant(precision_bits: int) -> BigComplex:
    """The lemniscate constant omega = pi / (2 AGM(1, sqrt 2))."""
    if precision_bits < 64:
        raise InputError("precision_bits must be at least 64")
    return big_complex(_omega(precision_bits + GUARD), 0, precision_bits)


# -- Maclaurin coefficients ---------------------------------------------------
#
# sl(z) = sum A[k] z^(4k+1); the ODE sl'' = -2 sl^3 gives
# (4k+1)(4k) A[k] = -2 * [z^(4k-1)] sl^3, and the cube coefficient at
# 4(k-1)+3 is b[k-1] = sum_{i+j+l=k-1} A[i]A[j]A[l].

# One entry per working precision; escalation alone uses seven (64 to 4096 bits).
@lru_cache(maxsize=8)
def _series_coeffs(bits: int) -> tuple:
    """A[0], A[1], ... at bits + GUARD bits, up to the first term worth less
    than one unit 2^-F where the kernel sums the series, at |z^4| <= 2^-8:
    (4k+1) |A[k]| 2^-8k < 2^-F."""
    F = _frac_bits(bits)
    with mp.workprec(bits + GUARD):
        A = [mpf(1)]
        S2 = []  # S2[t] = [z^(4t+2)] sl^2
        while (4 * len(A) - 3) * abs(A[-1]) >= mp.ldexp(1, 8 * (len(A) - 1) - F):
            k = len(A)
            m = k - 1
            S2.append(mp.fsum(A[i] * A[m - i] for i in range(m + 1)))
            b = mp.fsum(S2[t] * A[m - t] for t in range(m + 1))
            n = 4 * k - 1
            A.append(-2 * b / ((n + 1) * (n + 2)))
    return tuple(A)


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


def _omega_fx(bits: int) -> int:
    """omega at bits + GUARD bits, the value lemniscate_constant carries, as
    a fixed-point int."""
    return _fx(_omega(bits + GUARD), _frac_bits(bits))


def _big_fx(z: tuple, F: int, bits: int) -> BigComplex:
    """The fixed-point pair z as a BigComplex, exactly."""
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


def _add_fx(s1: tuple, c1: tuple, s2: tuple, c2: tuple, F: int, bits: int) -> tuple:
    """The addition law on fixed-point pairs; raises PrecisionLoss when the
    denominator falls below 2^-(bits - GUARD)."""
    q1 = _cmul(s1, s1, F)
    q2 = _cmul(s2, s2, F)
    p = _cmul(q1, q2, F)
    den = ((1 << F) + p[0], p[1])
    floor = 1 << (F - bits + GUARD)
    if den[0] * den[0] + den[1] * den[1] < floor * floor:
        raise PrecisionLoss("addition-law denominator below the precision floor")
    a = _cmul(s1, c2, F)
    b = _cmul(s2, c1, F)
    num = (a[0] + b[0], a[1] + b[1])
    cc = _cmul(c1, c2, F)
    t = _cmul(_cmul(q1, s1, F), s2, F)
    u = _cmul(_cmul(s1, c1, F), q2, F)
    s = _cdiv(num, den, F)
    # c = (num_d*den - num*den_d) / den^2 = (num_d - s*den_d) / den with
    # num_d = c1 c2 - 2 s1^3 s2 and den_d = 2 s1 c1 s2^2, the derivatives along u.
    v = _cmul(s, u, F)
    c = _cdiv((cc[0] - 2 * t[0] - 2 * v[0], cc[1] - 2 * t[1] - 2 * v[1]), den, F)
    return s, c


# One entry per working precision: the escalation precisions and, for each,
# the table's precision at every depth in use.
@lru_cache(maxsize=32)
def _series_fx(bits: int) -> tuple:
    """(A[k], (4k+1) A[k]) as fixed-point ints, highest k first, for Horner.

    The coefficients come from the set for bits rounded up to a multiple of
    32, which is as long and as precise as bits needs, so the table
    precisions bits + 3*depth of one escalation round share one set."""
    F = _frac_bits(bits)
    A = [_fx(a, F) for a in _series_coeffs(-(-bits // 32) * 32)]
    return tuple((A[k], (4 * k + 1) * A[k]) for k in reversed(range(len(A))))


def _sl_fx(z: tuple, bits: int) -> tuple:
    """(sl z, sl' z) on fixed-point pairs, no lattice reduction; |z| should
    be cell-sized.  Halve until |w| <= 1/4, sum both series by Horner in
    u = w^4, double back."""
    F = _frac_bits(bits)
    wr, wi = z
    halvings = 0
    quarter_sq = 1 << (2 * F - 4)
    while wr * wr + wi * wi > quarter_sq:
        wr >>= 1
        wi >>= 1
        halvings += 1
    ur, ui = _pow4((wr, wi), F)
    terms = _series_fx(bits)
    sr, cr = terms[0]
    si = ci = 0
    for a, b in terms[1:]:
        sr, si = ((sr * ur - si * ui) >> F) + a, (sr * ui + si * ur) >> F
        cr, ci = ((cr * ur - ci * ui) >> F) + b, (cr * ui + ci * ur) >> F
    s, c = _cmul((sr, si), (wr, wi), F), (cr, ci)
    for _ in range(halvings):
        s, c = _add_fx(s, c, s, c, F, bits)
    return s, c


def sl_pair_add(a: SlPair, b: SlPair) -> SlPair:
    """Addition law for (sl, sl') pairs; raises PrecisionLoss near its poles."""
    bits = min(a.precision_bits, b.precision_bits)
    F = _frac_bits(bits)
    s1, c1, s2, c2 = ((_fx(v.re, F), _fx(v.im, F)) for v in (a.s, a.c, b.s, b.c))
    s, c = _add_fx(s1, c1, s2, c2, F, bits)
    return SlPair(s=_big_fx(s, F, bits), c=_big_fx(c, F, bits))


def _sl_raw(z: mpc, bits: int) -> tuple:
    """(sl z, sl' z) with no lattice reduction; |z| should be cell-sized."""
    F = _frac_bits(bits)
    pairs = _sl_fx((_fx(z.real, F), _fx(z.imag, F)), bits)
    return tuple(mp.make_mpc((from_man_exp(re, -F), from_man_exp(im, -F))) for re, im in pairs)


def sl_eval(z: BigComplex, precision_bits: Optional[int] = None) -> SlPair:
    """(sl z, sl' z) after reduction modulo L = Z*(1+i)*omega + Z*(1-i)*omega,
    coordinates rounded half toward -infinity; raises PoleProximity when the
    reduced argument lies within 2^-(bits - GUARD) of a pole (+-1 +- i)*omega."""
    bits = z.precision_bits if precision_bits is None else precision_bits
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
    each listed from its smallest canonical representative."""
    seen = set()
    orbits = []
    for lam in ring.representatives():
        if lam == ZERO or lam in seen:
            continue
        orbit = [lam]
        cur = lam
        for _ in range(3):
            cur = ring.canonical_rep(cur * GaussInt(0, 1))
            orbit.append(cur)
        rep = min(orbit, key=lambda g: (g.re, g.im))
        k = orbit.index(rep)
        orbit = orbit[k:] + orbit[:k]
        seen.update(orbit)
        orbits.append(orbit)
    return orbits


def _even_lift(lam: GaussInt, beta: GaussInt) -> GaussInt:
    """The lift of lam (mod beta) with re+im even; exists since beta is odd."""
    if (lam.re + lam.im) % 2 == 0:
        return lam
    return lam + beta


def _is_pole(x: GaussInt, beta: GaussInt) -> bool:
    """True when x*w, w = (1+i)*omega/beta, is a pole of sl: the poles are
    (1+i)*omega times the odd Gaussian integers, so beta | x with an odd
    quotient."""
    q, rem = gauss_divmod(x, beta)
    return rem.is_zero() and q.is_odd()


def _split(r: GaussInt, beta: GaussInt) -> tuple:
    """Gaussian integers summing to r, each with no pole on its real or
    imaginary multiple of w: (r,) unless re(r) or i*im(r) is a pole, which
    then gives one unit of w to the other part."""
    for part in (GaussInt(r.re, 0), GaussInt(0, r.im)):
        if _is_pole(part, beta):
            unit = GaussInt((part.re > 0) - (part.re < 0), (part.im > 0) - (part.im < 0))
            return part - unit, r - part + unit
    return (r,)


# Keyed by the ring and the generator class; the numeric route asks for each
# beta at two or more precisions, so the plan is built once per beta.
@lru_cache(maxsize=32)
def _orbit_plan(ring, mult: GaussInt) -> tuple:
    """(plan, K): per unit orbit (orbit, parts, invertible), where the parts
    from _split sum to r, the even lift of the orbit's first residue times
    mult reduced mod 2 beta, and K is the largest |re| or |im| of a part."""
    beta = ring.modulus
    plan = []
    for orbit in _unit_orbits(ring):
        r = gauss_divmod(_even_lift(orbit[0], beta) * mult, 2 * beta)[1]
        plan.append((orbit, _split(r, beta), ring.is_invertible(orbit[0])))
    K = max(max(abs(p.re), abs(p.im)) for _, parts, _ in plan for p in parts)
    return tuple(plan), K


def _sl_table(w: tuple, K: int, tbits: int, bits: int) -> list:
    """[(sl k*w, sl' k*w) for k = 0..K] at the fixed point of tbits: one
    series evaluation at w, then T[k] = T[k // 2] + T[k - k // 2] by the
    addition law, whose floor stays at bits."""
    F = _frac_bits(tbits)
    T = [((0, 0), (1 << F, 0)), _sl_fx(w, tbits)]
    for k in range(2, K + 1):
        T.append(_add_fx(*T[k // 2], *T[k - k // 2], F, bits))
    return T


def _lookup(T: list, x: GaussInt, F: int, bits: int) -> tuple:
    """(sl x*w, sl' x*w) from the table by sl(-z) = -sl(z) and
    sl(iz) = i sl(z), sl' being even and invariant under z -> iz; one
    addition when x lies on neither axis."""
    s, c = T[abs(x.re)]
    if x.re < 0:
        s = (-s[0], -s[1])
    if x.im == 0:
        return s, c
    t, d = T[abs(x.im)]
    t = (-t[1], t[0]) if x.im > 0 else (t[1], -t[0])
    if x.re == 0:
        return t, d
    return _add_fx(s, c, t, d, F, bits)


def torsion_points(beta, precision_bits: int = 256) -> tuple:
    """All N(beta) division points lam*S, S = (1+i)*omega/beta, lam canonical."""
    beta = _check_beta(beta)
    ring = residue_ring(beta)
    bits = precision_bits
    with mp.workprec(bits + GUARD):
        om = _omega(bits + GUARD)
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


def _orbit_values(ring, bits: int, mult: GaussInt = ONE) -> list:
    """(orbit, invertible, v) for each unit orbit, v = sl(lam*mult*S) at the
    orbit's first residue lam as a fixed-point pair at _frac_bits(bits);
    PrecisionLoss when two of the N(beta) values, 0 included, collide.

    With w = S = (1+i)*omega/beta and r = a + bi the orbit's reduced lift,
    v = sl(a*w + i*b*w): one addition of two table entries, two on the orbits
    the pole rule splits.
    """
    plan, K = _orbit_plan(ring, mult)
    beta = ring.modulus
    n = beta.norm()
    g = GaussInt(1, 1) * beta.conjugate()
    # 3 guard bits per level of the table's depth ceil(log2 K); see the
    # module docstring.
    tbits = bits + 3 * (K - 1).bit_length()
    tF, F = _frac_bits(tbits), _frac_bits(bits)
    om = _fx(_omega(bits + GUARD), tF)
    T = _sl_table((om * g.re // n, om * g.im // n), K, tbits, bits)
    out = []
    for orbit, parts, invertible in plan:
        s, c = _lookup(T, parts[0], tF, bits)
        for part in parts[1:]:
            s, c = _add_fx(s, c, *_lookup(T, part, tF, bits), tF, bits)
        out.append((orbit, invertible, (s[0] >> (tF - F), s[1] >> (tF - F))))
    _check_distinct([(0, 0)] + [u for _, _, v in out for u in _rotations(v)], F, bits)
    return out


def torsion_values(beta, precision_bits: int = 256, generator_class: Optional[GaussInt] = None) -> dict:
    """Map lam -> sl(lam*S) over all canonical residues lam mod beta.

    The remaining three values of each orbit follow from sl(i z) = i sl(z).
    generator_class multiplies S by an invertible class (the value set is
    then permuted, not changed).
    """
    beta = _check_beta(beta)
    ring = residue_ring(beta)
    mult = ONE if generator_class is None else as_gauss(generator_class)
    if not gauss_gcd(mult, beta).is_unit():
        raise InputError("generator_class must be invertible mod beta")
    bits = precision_bits
    F = _frac_bits(bits)
    values = {ring.canonical_rep(ZERO): (0, 0)}
    for orbit, _, v in _orbit_values(ring, bits, mult):
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


def _numeric_poly_at(beta: GaussInt, ring, bits: int) -> tuple:
    """Expand prod (X^4 - v^4) over invertible unit orbits; round to Z[i] coefficients.

    An orbit's factor (X - v)(X - iv)(X + v)(X + iv) is X^4 - v^4, so
    G(Y) = prod (Y - v^4) is expanded in fixed point and rounded, and its
    coefficients go to X^(4k); every other coefficient is exactly zero.
    Returns the polynomial and the largest rounding error.
    """
    F = _frac_bits(bits)
    fourth = [_pow4(v, F) for _, invertible, v in _orbit_values(ring, bits) if invertible]
    re, im = [1 << F], [0]  # G, lowest degree first
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
    half = 1 << (F - 1)
    rounded = [ZERO] * (4 * len(fourth) + 1)
    worst = 0  # largest squared rounding error, scaled by 2^(2F)
    for k, (r, i) in enumerate(zip(re, im)):
        gr, gi = (r + half) >> F, (i + half) >> F
        dr, di = r - (gr << F), i - (gi << F)
        worst = max(worst, dr * dr + di * di)
        rounded[4 * k] = GaussInt(gr, gi)
    return PolyZi.make(rounded), math.sqrt(worst / (1 << (2 * F)))


def _attempt(beta: GaussInt, ring, bits: int) -> tuple:
    """_numeric_poly_at, with a precision failure read as an infinite error."""
    try:
        return _numeric_poly_at(beta, ring, bits)
    except PrecisionLoss:
        return None, math.inf


def _check_precision(precision_bits: int) -> None:
    """InputError for a starting precision above PRECISION_CEILING, read at call time."""
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
    already misses the tolerance.  A start above the ceiling is an InputError.
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
