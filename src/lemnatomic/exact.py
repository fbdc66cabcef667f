"""Exact pipeline for lemnatomic polynomials.

sl(beta z) is computed as an element of the function field
Q(i)(s)[c] / (c^2 - (1 - s^4)), where s stands for sl(z) and c for sl'(z).
By Gauss's lemma the chain never leaves Z[i][s]: the field is represented by
graded pairs, a numerator that is a polynomial in s or c times one, over a
plain polynomial denominator.  Integer multiples come from symbolic
application of the addition law

    sl(u+v) = (sl u sl'v + sl v sl'u) / (1 + sl^2 u sl^2 v),

the factor i by the substitution s -> i s (sl(iz) = i sl(z),
sl'(iz) = sl'(z)), and beta = m + ni by one further addition.  Derivative
bookkeeping goes through the derivation D(s) = c, D(c) = -2 s^3 with
sl'(beta z) = D(sl(beta z)) / beta.  Since every element in the chain is
graded, the c-part of sl(beta z) vanishing for odd beta is enforced
structurally.  The finished map f = N/B is certified, however the chain was
assembled, by the first integral of the defining equation,

    (1 - s^4) * (N' B - N B')^2 = beta^2 * (B^4 - N^4)   (odd beta),

together with the initial condition f(0) = 0 (N(0) = 0, B(0) != 0): then
f'(0)^2 = beta^2 != 0, and f' = +-beta sqrt(1 - f^4) has a unique solution
through 0, so f = +-sl(beta z) (see mult_map).  For odd beta the cheap
invariant B = unit * s^N(beta) N(1/s) is checked too.

For odd beta the numerator N, made monic, is the all-torsion polynomial
T_beta of degree N(beta).  Dividing out the lemnatomic polynomials of all
proper divisors (with Lambda_1 := X for the zero torsion value) leaves
Lambda_beta.

Fraction reduction strategy: intermediate numerators and denominators stay in
Z[i][s], and after each addition step the pair is divided by its gcd, found
by a multi-modular algorithm (Brown).  Each prime p = 1 (mod 4) from a fixed
sequence gives two images F_p[s] (i -> +-sqrt(-1) mod p) in which a plain
Euclidean gcd runs; images where a leading coefficient vanishes are skipped,
images of too high a degree are dropped, and the rest, scaled by the gcd of
the two leading coefficients, are joined by CRT until the lift is stable.  A
gcd of degree 0 in any admissible image certifies the pair coprime.
Otherwise the primitive part of the lift is accepted only once it divides
both numerator and denominator exactly over Z[i]; with the degree bound from
the admissible images this certifies it as the gcd, so no coefficient bound
is assumed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .errors import InputError, InternalInconsistency
from .gaussint import (
    GaussInt,
    I,
    ONE,
    UNITS,
    ZERO,
    _check_beta,
    _is_rational_prime,
    _sqrt_minus_one,
    as_gauss,
    exact_div,
    factor,
    format_gauss,
    gauss_gcd,
    primary_normalize,
)
from .gfq import _int_gcd
from .residue import phi_norm
from .zipoly import PolyZi, _divmod, exact_divide

__all__ = [
    "LemnatomicRecord",
    "divisors_up_to_units",
    "mult_map",
    "all_torsion_poly",
    "lemnatomic_exact",
    "record_checksum",
]


# -- gcd over Z[i][s] ---------------------------------------------------------


def _zi_content(*polys: PolyZi) -> GaussInt:
    """Gcd of the coefficients of all polys; ONE if it is a unit or all are zero."""
    content = ZERO
    for p in polys:
        for c in p.coeffs:
            if c.is_zero():
                continue
            content = c if content.is_zero() else gauss_gcd(content, c)
            if content.is_unit():
                return ONE
    return content if not content.is_zero() else ONE


def _zi_primitive(p: PolyZi) -> PolyZi:
    g = _zi_content(p)
    if g == ONE:
        return p
    return PolyZi.make([exact_div(c, g) for c in p.coeffs])


# Brown's modular gcd (J. ACM 18, 1971) over Z[i].  For a rational prime
# p = 1 (mod 4), Z[i]/p is F_p x F_p through i -> iota and i -> -iota with
# iota^2 = -1 (mod p).  With gamma = gcd(lc a, lc b), gamma * (monic gcd) in
# an image is the image of (gamma / lc g) * g for the primitive gcd g, as long
# as the image has the smallest gcd degree; in an image that keeps lc a and
# lc b that degree is at least deg g.  So a primitive h of that degree that
# divides a and b exactly over Z[i] is g up to a unit.
#
# The sequence starts with the primes p = 1 (mod 4) just below 2^62, each with
# its iota; most reductions need one or two of them.
_GCD_PRIMES = tuple(
    (p, _sqrt_minus_one(p))
    for p in (
        4611686018427387817,
        4611686018427387761,
        4611686018427387737,
        4611686018427387733,
        4611686018427387709,
        4611686018427387701,
        4611686018427387617,
        4611686018427387461,
    )
)


def _split_primes():
    """_GCD_PRIMES, then the next primes p = 1 (mod 4) below them, with iota."""
    yield from _GCD_PRIMES
    n = _GCD_PRIMES[-1][0]
    while True:
        n -= 4
        if _is_rational_prime(n):
            yield n, _sqrt_minus_one(n)


def _mod_image(p: PolyZi, prime: int, iota: int) -> list:
    return [(c.re + c.im * iota) % prime for c in p.coeffs]


def _zi_quotient(f: PolyZi, g: PolyZi) -> Optional[PolyZi]:
    """f / g when g divides f exactly over Z[i], else None."""
    division = _divmod(f, g)
    if division is None or not division[1].is_zero():
        return None
    return division[0]


def _zi_gcd_cofactors(a: PolyZi, b: PolyZi) -> tuple:
    """(g, a/g, b/g) for the primitive gcd g of a and b, up to a unit.

    A zero input gives the primitive part of the other one (zero for two
    zeros); a nonzero constant input gives g = 1.
    """
    if a.is_zero() or b.is_zero():
        g = _zi_primitive(b if a.is_zero() else a)
        if g.is_zero():
            return g, a, b
        return g, _zi_quotient(a, g), _zi_quotient(b, g)
    if a.degree() == 0 or b.degree() == 0:
        return _ZI_ONE, a, b
    leads = (a.leading(), b.leading())
    gamma = gauss_gcd(*leads)
    degree = min(a.degree(), b.degree()) + 1  # above every image's gcd degree
    lift: list = []  # re, im, re, im, ... of gamma * monic gcd, symmetric mod modulus
    modulus = 1
    for prime, iota in _split_primes():
        roots = (iota, prime - iota)
        if any((c.re + c.im * r) % prime == 0 for c in leads for r in roots):
            continue
        images = []
        for r in roots:
            g = _int_gcd(prime, _mod_image(a, prime, r), _mod_image(b, prime, r))
            if len(g) == 1:
                return _ZI_ONE, a, b
            images.append(g)
        low = min(len(g) for g in images) - 1
        if low < degree:  # every prime joined so far was unlucky
            degree, lift, modulus = low, [], 1
        if any(len(g) - 1 != degree for g in images):
            continue
        # gamma * (monic gcd) in each image; u = re + im iota, v = re - im iota
        plus, minus = (
            [c * ((gamma.re + gamma.im * r) % prime) % prime for c in g]
            for g, r in zip(images, roots)
        )
        halve, halve_iota = pow(2, -1, prime), pow(2 * iota, -1, prime)
        residues = []
        for u, v in zip(plus, minus):
            residues.append((u + v) * halve % prime)
            residues.append((u - v) * halve_iota % prime)
        half = prime // 2
        if not lift:
            lift = [x - prime if x > half else x for x in residues]
            modulus = prime
            continue
        # Garner step: lift + modulus * t with t symmetric mod prime keeps the
        # lift symmetric mod modulus * prime
        inverse = pow(modulus % prime, -1, prime)
        stable = True
        for k, x in enumerate(residues):
            t = (x - lift[k]) * inverse % prime
            if t:
                lift[k] += modulus * (t - prime if t > half else t)
                stable = False
        modulus *= prime
        if not stable:
            continue
        h = _zi_primitive(PolyZi(tuple(map(GaussInt, lift[0::2], lift[1::2]))))
        qa = _zi_quotient(a, h)
        qb = _zi_quotient(b, h) if qa is not None else None
        if qb is not None:
            return h, qa, qb
    raise AssertionError("unreachable: the prime sequence is infinite")


def _reduce_zi_fraction(num: PolyZi, den: PolyZi) -> tuple:
    """Bring num/den to lowest terms with content one and a first-quadrant
    leading coefficient on den."""
    if den.is_zero():
        raise InputError("zero denominator")
    if num.is_zero():
        return num, PolyZi.make([ONE])
    joint = _zi_content(num, den)
    if joint != ONE:
        num = PolyZi.make([exact_div(c, joint) for c in num.coeffs])
        den = PolyZi.make([exact_div(c, joint) for c in den.coeffs])
    # the gcd is primitive, so by Gauss's lemma the cofactors keep joint content one
    _, num, den = _zi_gcd_cofactors(num, den)
    unit = _unit_to_first_quadrant(den.leading())
    if unit != ONE:
        num = num * unit
        den = den * unit
    return num, den


def _unit_to_first_quadrant(lead: GaussInt) -> GaussInt:
    unit = ONE
    cur = lead
    while not (cur.re > 0 and cur.im >= 0):
        unit = unit * I
        cur = lead * unit
    return unit


# -- the multiplication-map chain over Z[i][s] --------------------------------
#
# A chain element is a pair (value, derivative-value) for sl(k z):
#   s_k = A / B           with A graded, B a plain polynomial,
#   c_k = C / B^2         with C graded,
# where "graded" means (poly, parity): parity 0 is a polynomial in s, parity 1
# carries one overall factor c (c^2 collapses to W = 1 - s^4).

_ZI_W = PolyZi.make([1, 0, 0, 0, -1])
_ZI_ONE = PolyZi.make([1])
_ZI_S = PolyZi.make([0, 1])
_ZI_TWO_S3 = PolyZi.make([0, 0, 0, 2])

Graded = tuple  # (PolyZi, int parity)


def _g_mul(x: Graded, y: Graded) -> Graded:
    px, py = x[1], y[1]
    poly = x[0] * y[0]
    if px and py:
        poly = poly * _ZI_W
    return (poly, (px + py) % 2)


def _g_add(x: Graded, y: Graded) -> Graded:
    if x[0].is_zero():
        return y
    if y[0].is_zero():
        return x
    if x[1] != y[1]:
        raise InternalInconsistency("sum of differently graded sl expressions")
    return (x[0] + y[0], x[1])


def _g_neg(x: Graded) -> Graded:
    return (-x[0], x[1])


def _g_subst_is(x: Graded) -> Graded:
    poly = PolyZi.make([c * (I**k) for k, c in enumerate(x[0].coeffs)])
    return (poly, x[1])


def _g_deriv(x: Graded) -> Graded:
    """The derivation d/dz on a graded expression."""
    poly, parity = x
    if parity == 0:
        return (poly.derivative(), 1)
    return (poly.derivative() * _ZI_W - _ZI_TWO_S3 * poly, 0)


@dataclass(frozen=True, slots=True)
class _Pair:
    """sl(k z) = a/b, sl'(k z) = c/b^2; a, c graded, b a plain polynomial."""

    a: Graded
    b: PolyZi
    c: Graded


_PAIR_ONE = _Pair(a=(_ZI_S, 0), b=_ZI_ONE, c=(_ZI_ONE, 1))


def _derivative_over(num: Graded, den: PolyZi, total: GaussInt) -> Graded:
    """C with sl'(total z) = C / den^2, from d/dz (num/den) = total * sl'."""
    m = _g_add(_g_mul(_g_deriv(num), (den, 0)), _g_neg(_g_mul(num, _g_deriv((den, 0)))))
    try:
        scaled = PolyZi.make([exact_div(c, total) for c in m[0].coeffs])
    except InputError as exc:
        raise InternalInconsistency(
            f"derivative of the multiplication chain is not divisible by {total}"
        ) from exc
    return (scaled, m[1])


def _pair_sum(pa: _Pair, pb: _Pair, total: GaussInt) -> _Pair:
    """Addition law on two chain pairs whose arguments sum to total * z."""
    ba, bb = (pa.b, 0), (pb.b, 0)
    num = _g_add(_g_mul(_g_mul(pa.a, pb.c), ba), _g_mul(_g_mul(pb.a, pa.c), bb))
    den = _g_add(_g_mul(_g_mul(ba, ba), _g_mul(bb, bb)), _g_mul(_g_mul(pa.a, pa.a), _g_mul(pb.a, pb.a)))
    if den[1] != 0:
        raise InternalInconsistency("addition-law denominator is not a polynomial in s")
    n_poly, d_poly = _reduce_zi_fraction(num[0], den[0])
    n = (n_poly, num[1])
    return _Pair(a=n, b=d_poly, c=_derivative_over(n, d_poly, total))


# The exact ladder leaves 8 entries here, 13 with beta = 13, 13+10i, 17 and
# -19 added, so no workload evicts and sl(11 z) built for -11 is still there
# when 11-2i needs it.
@lru_cache(maxsize=128)
def _integer_pair(n: int) -> _Pair:
    """Chain pair for sl(n z), n >= 1."""
    if n == 1:
        return _PAIR_ONE
    half = _integer_pair(n // 2)
    result = _pair_sum(half, half, as_gauss(2 * (n // 2)))
    if n % 2:
        result = _pair_sum(result, _PAIR_ONE, as_gauss(n))
    return result


def _negate_pair(p: _Pair) -> _Pair:
    # sl(-w) = -sl(w), sl'(-w) = sl'(w)
    return _Pair(a=_g_neg(p.a), b=p.b, c=p.c)


def _subst_pair(p: _Pair) -> _Pair:
    # w -> i w on the argument: s -> i s, c -> c in every component
    return _Pair(a=_g_subst_is(p.a), b=_g_subst_is((p.b, 0))[0], c=_g_subst_is(p.c))


def _beta_pair(beta: GaussInt) -> _Pair:
    m, n = beta.re, beta.im
    parts: list[_Pair] = []
    if m:
        pm = _integer_pair(abs(m))
        if m < 0:
            pm = _negate_pair(pm)
        parts.append(pm)
    if n:
        pn = _integer_pair(abs(n))
        if n < 0:
            pn = _negate_pair(pn)
        parts.append(_subst_pair(pn))
    if len(parts) == 1:
        return parts[0]
    return _pair_sum(parts[0], parts[1], beta)


def _verify_first_integral(num: Graded, den: PolyZi, beta: GaussInt) -> None:
    """Certify the finished chain f = N c^parity / B as +-sl(beta z).

    Checked, cheapest first:
      f(0) = 0:            N(0) = 0 and B(0) != 0;
      odd beta:            B = unit * s^N(beta) N(1/s), Abel's reversal;
      (f')^2 = beta^2 (1 - f^4), as an identity over Z[i][s]:
        parity 0:  W * (N'B - NB')^2          = beta^2 (B^4 - N^4)
        parity 1:  ((N'W - 2s^3 N)B - NWB')^2 = beta^2 (B^4 - W^2 N^4)
    """
    n_poly, parity = num
    b = den
    if n_poly[0] != ZERO or b[0] == ZERO:
        raise InternalInconsistency(
            f"sl({beta} z) = N/B fails the initial condition N(0) = 0, B(0) != 0"
        )
    if beta.is_odd():
        rev = PolyZi.make([ZERO] * (beta.norm() - n_poly.degree()) + list(reversed(n_poly.coeffs)))
        if not any(b == rev * u for u in UNITS):
            raise InternalInconsistency(
                f"denominator of sl({beta} z) is not a unit times the reversed numerator"
            )
    m = _g_add(_g_mul(_g_deriv(num), (b, 0)), _g_neg(_g_mul(num, _g_deriv((b, 0)))))
    b2 = b * b
    b4 = b2 * b2
    n2 = n_poly * n_poly
    n4 = n2 * n2
    beta2 = beta * beta
    if parity == 0:
        lhs = m[0] * m[0] * _ZI_W
        rhs = (b4 - n4) * beta2
    else:
        lhs = m[0] * m[0]
        rhs = (b4 - n4 * _ZI_W * _ZI_W) * beta2
    if lhs != rhs:
        raise InternalInconsistency(
            f"sl({beta} z) violates the first integral of the defining equation"
        )


def mult_map(beta) -> tuple:
    """sl(beta z) as the reduced graded pair ((N, parity), B) over Z[i][s]:
    sl(beta z) = N(s) c^parity / B(s) in Q(i)(s)[c]/(c^2 - (1-s^4)), with
    N/B in lowest terms.

    For odd beta the c-part must vanish (enforced by the grading) and the
    numerator degree must be N(beta).  The finished pair is then certified,
    however the chain was assembled, by _verify_first_integral.  Put
    f = N(sl z) c^parity / B(sl z) with c = sl'(z).  The first integral says
    f'^2 = beta^2 (1 - f^4), and N(0) = 0, B(0) != 0 say f(0) = 0, so
    f'(0)^2 = beta^2 != 0.  Near z = 0 the equation therefore reads
    f' = +-beta sqrt(1 - f^4) with a fixed sign and a right-hand side
    analytic in f, whose solution through f(0) = 0 is unique: f = +-sl(beta z).
    The initial condition is needed because i B / N = i / sl(beta z)
    satisfies the same first integral.  For odd beta the verifier also checks
    B = unit * s^N(beta) N(1/s) (Abel's theorem; Rosen, Amer. Math. Monthly
    88, 1981), which the swapped pair (i B, N) passes as well.
    """
    beta = as_gauss(beta)
    if beta.is_zero():
        raise InputError("mult_map requires beta != 0")
    pair = _beta_pair(beta)
    num, den = pair.a, pair.b
    if beta.is_odd():
        if num[1] != 0:
            raise InternalInconsistency(
                f"sl({beta} z) has a residual sl' component despite odd beta"
            )
        if num[0].degree() != beta.norm():
            raise InternalInconsistency(
                f"numerator degree {num[0].degree()} != N(beta) = {beta.norm()} for beta={beta}"
            )
    _verify_first_integral(num, den, beta)
    return num, den


# -- all-torsion and lemnatomic polynomials -----------------------------------


def all_torsion_poly(beta) -> PolyZi:
    """T_beta: monic, degree N(beta), roots are all beta-torsion sl values."""
    beta = _check_beta(beta)
    (num, _), _ = mult_map(beta)
    n = beta.norm()
    content = _zi_content(num)
    lead_unit = exact_div(num.leading(), content)
    if not lead_unit.is_unit():
        raise InternalInconsistency(
            "all-torsion numerator is not a unit times a monic integer polynomial"
        )
    t = PolyZi.make([exact_div(exact_div(c, content), lead_unit) for c in num.coeffs])
    if t.degree() != n:
        raise InternalInconsistency(f"T_{beta} has degree {t.degree()} != N(beta) = {n}")
    if not t.is_monic():
        raise InternalInconsistency(f"T_{beta} is not monic after normalization")
    return t


def divisors_up_to_units(beta) -> list:
    """All primary divisors of odd beta (including 1 and beta), sorted by norm."""
    beta = as_gauss(beta)
    if beta.is_zero():
        raise InputError("beta must be nonzero")
    if not beta.is_odd():
        raise InputError("beta must be odd (coprime to 1+i)")
    _, facs = factor(beta)
    divisors = [ONE]
    for prime, exp in facs:
        current = list(divisors)
        power = ONE
        for _ in range(exp):
            power = power * prime.value
            divisors.extend(d * power for d in current)
    return sorted(
        (primary_normalize(d)[1] for d in divisors),
        key=lambda g: (g.norm(), g.re, g.im),
    )


@dataclass(frozen=True, slots=True)
class LemnatomicRecord:
    """A computed lemnatomic polynomial and how it was obtained."""

    beta: GaussInt
    degree: int
    coefficients: PolyZi
    method: str
    precision_bits: int
    checksum: str

    @staticmethod
    def build(beta: GaussInt, poly: PolyZi, method: str, precision_bits: int) -> "LemnatomicRecord":
        if method not in ("exact", "numeric", "both"):
            raise InputError(f"unknown method {method!r}")
        want = phi_norm(beta)
        if poly.degree() != want:
            raise InternalInconsistency(
                f"lemnatomic degree {poly.degree()} != phi_norm {want} for beta={beta}"
            )
        if not poly.is_monic():
            raise InternalInconsistency(f"lemnatomic polynomial for beta={beta} is not monic")
        # Lambda_beta(0) is the primary prime pi when beta = unit * pi^k, and
        # 1 when beta has two distinct prime factors.
        _, facs = factor(beta)
        constant = facs[0][0].value if len(facs) == 1 else ONE
        if poly[0] != constant:
            raise InternalInconsistency(
                f"lemnatomic polynomial for beta={beta} has constant term {poly[0]}, not {constant}"
            )
        return LemnatomicRecord(
            beta=beta,
            degree=poly.degree(),
            coefficients=poly,
            method=method,
            precision_bits=precision_bits,
            checksum=record_checksum(beta, poly),
        )


def record_checksum(beta: GaussInt, poly: PolyZi) -> str:
    payload = format_gauss(beta) + ":" + ",".join(format_gauss(c) for c in poly.coeffs)
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


# Keyed by the primary beta from _check_beta, so associates share one entry.
# The exact ladder (N(beta) up to 125) leaves 8 entries, Lambda_1 included,
# and 16 with beta = 13, 13+10i, 17 and -19 added, so no workload evicts.
@lru_cache(maxsize=64)
def _lemnatomic_poly(beta: GaussInt) -> PolyZi:
    """Lambda_beta for primary beta, with Lambda_1 := X."""
    if beta == ONE:
        return PolyZi.make([ZERO, ONE])
    quotient = all_torsion_poly(beta)
    for d in divisors_up_to_units(beta):
        if d == beta:
            continue
        quotient = exact_divide(quotient, _lemnatomic_poly(d))
    return quotient


def lemnatomic_exact(beta) -> LemnatomicRecord:
    """Lemnatomic polynomial of beta by the exact pipeline."""
    beta = _check_beta(beta)
    poly = _lemnatomic_poly(beta)
    return LemnatomicRecord.build(beta, poly, method="exact", precision_bits=0)
