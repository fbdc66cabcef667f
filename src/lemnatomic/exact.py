"""Exact pipeline for lemnatomic polynomials.

sl(beta z) is computed as an element of the function field
Q(i)(s)[c] / (c^2 - (1 - s^4)), where s stands for sl(z) and c for sl'(z).
Complex multiplication by Z[i] gives every map one shape: with t = s^4,

    sl(beta z) = c^parity s P(t) / Q(t),

parity 0 for odd beta and 1 for even beta (see mult_map for why), so every
map is held as (P, Q) over Z[i][t].

Every first-quadrant beta of norm above 4, prime or composite, comes from
the product formula

    sl(u+v) sl(u-v) = (sl^2 u - sl^2 v) / (1 + sl^2 u sl^2 v),

which follows from the addition law and c^2 = 1 - s^4, with u + v = beta
and u - v = delta, the element = beta (mod 2) of smallest norm (1 or i for
odd beta, 1+i or 2 for even beta).  u and v have norm about N(beta) / 4,
and their maps and delta's come from the same construction.  1, 1+i and 2
are written down directly, and a beta off the first quadrant is a unit times
the map of its first-quadrant associate: sl(e beta z) = e sl(beta z).

Every map f is certified in t by the first integral
(f')^2 = beta^2 (1 - f^4) of the defining equation,

    (1 - t) R^2 = beta^2 (Q^4 - t P^4)              (odd beta),
    R1^2        = beta^2 (Q^4 - t (1 - t)^2 P^4)    (even beta),
    R = (P + 4t P') Q - 4t P Q',   R1 = (1 - t) R - 2t P Q,

together with the initial condition f(0) = 0, f'(0) = beta
(P(0) = beta Q(0) != 0): then f' = beta sqrt(1 - f^4) has a unique solution
through 0, so f = sl(beta z) (see mult_map).  For odd beta the cheap
invariants deg P = (N(beta) - 1) / 4 and Q = unit * t^deg P * P(1/t) are
checked too, and for even beta deg Q = ceil((N(beta) - 1) / 4).  The
identity is compared on Kronecker images: the first-level products come
from zipoly's one list-level product, and the final squarings are packed
once at one slot width w and never unpacked, so each side is a pair of
ints, its value at t = 2^w.  w bounds every coefficient of the difference,
so the pairs agree exactly when the polynomials do, and rev(P^4) is P^4's
packed value with its slots reversed.

For odd beta the numerator s P(t), made monic, is the all-torsion
polynomial T_beta = X P~(X^4) of degree N(beta), its factor X for the zero
torsion value.  Every other Lambda_d lies in Z[i][X^4], so
Lambda_beta = G(X^4), G = P~ for a prime beta; a composite beta's G is one
step from its cofactor's at a prime map (see _lemnatomic_poly).

Fraction reduction: the product formula's pair shares only factors
(t - 1)^a (t + 1)^b, so both terms are divided by t - 1 while both vanish
at t = 1, then likewise at t = -1.  The certificate, not the reduction,
establishes lowest terms: by deg P for odd beta and deg Q for even beta.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache

from .errors import InputError, InternalInconsistency
from .gaussint import (
    GaussInt,
    ONE,
    UNITS,
    ZERO,
    _check_beta,
    _unit_to_first_quadrant,
    as_gauss,
    exact_div,
    factor,
    format_gauss,
    gauss_gcd,
)
from .gfq import reduce_poly, residue_field
from .residue import phi_norm
from .zipoly import (
    PolyZi,
    _max_abs,
    complex_mul,
    exact_divide,
    kronecker_mul,
    pack_slots,
    reverse_slots,
)

__all__ = [
    "LemnatomicRecord",
    "divisors_up_to_units",
    "mult_map",
    "all_torsion_poly",
    "lemnatomic_exact",
    "record_checksum",
]


# -- fractions over Z[i][t] ---------------------------------------------------

_ZI_ONE = PolyZi.make([1])


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


def _reduce_zi_fraction(num: PolyZi, den: PolyZi) -> tuple:
    """num/den with content one, every common factor t - 1 and t + 1
    divided out, and a first-quadrant leading coefficient on den."""
    if den.is_zero():
        raise InputError("zero denominator")
    if num.is_zero():
        return num, PolyZi.make([ONE])
    joint = _zi_content(num, den)
    if joint != ONE:
        num = PolyZi.make([exact_div(c, joint) for c in num.coeffs])
        den = PolyZi.make([exact_div(c, joint) for c in den.coeffs])
    # t -/+ 1 is primitive, so by Gauss's lemma the quotients keep joint content one
    for root in (ONE, -ONE):
        linear = PolyZi.make([-root, ONE])
        while num.evaluate(root).is_zero() and den.evaluate(root).is_zero():
            num, den = exact_divide(num, linear), exact_divide(den, linear)
    unit = _unit_to_first_quadrant(den.leading())
    if unit != ONE:
        num = num * unit
        den = den * unit
    return num, den


# -- multiplication maps in t = s^4 -------------------------------------------

# The map (P, Q) = (beta, Q) of beta with N(beta) <= 4 has Q by norm:
# sl(e z) = e s for a unit e, sl(e (1+i) z) = c e (1+i) s / (1 - t) and
# sl(2e z) = c 2e s / (1 + t)
_BASE_DENOMINATORS = {1: _ZI_ONE, 2: PolyZi.make([1, -1]), 4: PolyZi.make([1, 1])}


def _from_t(p: PolyZi, shift: int) -> PolyZi:
    """s^shift * p(s^4)."""
    if p.is_zero():
        return p
    coeffs = [ZERO] * (4 * p.degree() + shift + 1)
    coeffs[shift::4] = p.coeffs
    return PolyZi(tuple(coeffs))


def _times_t(p: PolyZi) -> PolyZi:
    return PolyZi((ZERO,) + p.coeffs) if p.coeffs else p


def _squares(x: GaussInt) -> tuple:
    """(A, D) = ((1 - t)^parity P^2, Q^2) for the map (P, Q) of x, so that
    sl^2(x z) = s^2 A(t) / D(t) (c^2 = 1 - t).

    Read off the first-quadrant associate x0 = x / e of x, e a unit: the map
    of x is (e P0, Q0), so (A, D) = (e^2 A0, D0) with e^2 = +-1, and x needs
    no memo entry or certificate of its own."""
    unit = _unit_to_first_quadrant(x)  # x unit = x0, and e^2 = unit^2
    p, q = _map(x * unit)
    a = p * p
    a = a if x.is_odd() else a - _times_t(a)
    return (a if unit * unit == ONE else -a), q * q


def _product(u: GaussInt, v: GaussInt, delta: GaussInt) -> tuple:
    """(P, Q), not reduced, of sl((u + v) z) for u - v = delta, from

        sl(u+v) sl(u-v) = (sl^2 u - sl^2 v) / (1 + sl^2 u sl^2 v).

    u + v and delta have one parity, so sl((u+v) z) sl(delta z) is
    (1 - t)^parity s^2 P P_delta / (Q Q_delta), and with (A, D) from _squares

        P = (A_u D_v - A_v D_u) Q_delta,
        Q = (D_u D_v + t A_u A_v) P_delta (1 - t)^parity(delta).
    """
    (a_u, d_u), (a_v, d_v) = _squares(u), _squares(v)
    # delta's map is (P0 conj(e), Q0) for delta0 = delta e in the first quadrant, so
    # i (odd beta = i mod 2) is read off 1's entry and gets none of its own
    unit = _unit_to_first_quadrant(delta)
    p_delta, q_delta = _map(delta * unit)
    p = (a_u * d_v - a_v * d_u) * q_delta
    q = (d_u * d_v + _times_t(a_u * a_v)) * (p_delta * unit.conjugate())
    return p, (q if delta.is_odd() else q - _times_t(q))


def _verify_first_integral(p: PolyZi, q: PolyZi, beta: GaussInt) -> None:
    """Certify f = c^parity s P(t) / Q(t), t = s^4, as sl(beta z), with
    parity 0 for odd beta and 1 for even beta.

    Checked, cheapest first:
      f(0) = 0, f'(0) = beta:
                     P(0) = beta Q(0) != 0 (s P(t) vanishes at 0, c(0) = 1);
      odd beta:      deg P = (N(beta) - 1) / 4 = m and Q = unit * t^m P(1/t),
                     Abel's reversal;
      (f')^2 = beta^2 (1 - f^4), as an identity over Z[i][t]:
        odd beta:   (1 - t) R^2 = beta^2 (Q^4 - t P^4),
        even beta:  R1^2 = beta^2 (Q^4 - t (1 - t)^2 P^4),
      with R = (P + 4t P') Q - 4t P Q' and R1 = (1 - t) R - 2t P Q;
      even beta:     deg Q = ceil((N(beta) - 1) / 4).
    With N = s P(s^4), B = Q(s^4) and W = 1 - s^4 these are
        parity 0:  W (N'B - NB')^2            = beta^2 (B^4 - N^4),
        parity 1:  ((N'W - 2s^3 N)B - NWB')^2 = beta^2 (B^4 - W^2 N^4),
    after t = s^4, which is injective on polynomials, at a quarter of the
    degree.  Once the reversal holds, Q^4 is P^4 reversed and is not computed.

    The identity runs on (re, im) int lists.  R = A Q - P B with
    A = sum (4k + 1) p_k t^k and B = sum 4k q_k t^k, P^2, and for even beta
    P Q and Q^2, come from zipoly.kronecker_mul.  The final squarings, R^2
    and P^4 for odd beta and R1^2, Q^4 and ((1 - t) P^2)^2 for even beta,
    are packed once at one slot width w (_slot_width) and never unpacked:
    each side is held as the pair of ints (Re, Im) of its value at t = 2^w,
    where (1 - t) X is X - (X << w), t X is X << w and beta^2 is a complex
    scalar.  rev(P^4) is P^4's packed value with its 4m + 1 slots reversed
    (zipoly.reverse_slots).  Evaluation at 2^w is a ring homomorphism, and
    an integer polynomial whose coefficients are below 2^(w - 1) in absolute
    value vanishes at 2^w only if it is zero: its top nonzero term, of
    degree K, is at least 2^(wK) in absolute value, and the terms below it
    sum to at most 2^(w - 1) (2^(wK) - 1) / (2^w - 1) < 2^(wK).
    _slot_width bounds every coefficient of lhs - beta^2 rhs, and of P^4,
    below 2^(w - 1), so the two pairs are equal exactly when the identity
    holds, and the reversed slots are P^4's coefficients.

    The degrees certify lowest terms, since a common factor of P and Q
    raises both.  On the curve c^2 = 1 - s^4, f = sl o [beta] has degree
    2 N(beta), and the poles of the reduced pair count it: a root
    t0 not in {0, 1} of Q gives 8 poles, a root t0 = 1 of multiplicity m
    gives 4 poles of order 2m - parity (1 - t ~ c^2 there), and each of the
    two points at infinity has order 2 parity + 1 + 4 (deg P - deg Q) when
    that is positive.  So deg P = (N(beta) - 1) / 4 for odd beta, and
    deg Q = ceil((N(beta) - 1) / 4) for even beta, with (1 - t) | Q exactly
    when N(beta) = 2 (mod 4).  The even check comes after the identity, so
    a map that fails both is reported as failing the identity.
    """
    if q[0] == ZERO or p[0] != beta * q[0]:
        raise InternalInconsistency(
            f"sl({beta} z) = s P(t) / Q(t) fails the initial condition P(0) = beta Q(0) != 0"
        )
    n = beta.norm()
    if beta.is_odd():
        if 4 * p.degree() + 1 != n:
            raise InternalInconsistency(
                f"numerator degree {4 * p.degree() + 1} != N(beta) = {n} for beta={beta}"
            )
        rev = PolyZi.make(reversed(p.coeffs))
        if not any(q == rev * u for u in UNITS):
            raise InternalInconsistency(
                f"denominator of sl({beta} z) is not a unit times the reversed numerator"
            )
    pl = [c.re for c in p.coeffs], [c.im for c in p.coeffs]
    ql = [c.re for c in q.coeffs], [c.im for c in q.coeffs]
    a = tuple([(4 * k + 1) * x for k, x in enumerate(part)] for part in pl)
    b = tuple([4 * k * x for k, x in enumerate(part)] for part in ql)
    r = tuple([u - v for u, v in zip(x, y)] for x, y in zip(kronecker_mul(a, ql), kronecker_mul(pl, b)))
    p2 = kronecker_mul(pl, pl)
    if beta.is_odd():
        lhs, rhs = [r], [p2]
    else:
        # R1 = (1 - t) R - 2t P Q and (1 - t) P^2, slot by slot
        pq = kronecker_mul(pl, ql)
        r1 = tuple(
            [x - y - 2 * z for x, y, z in zip(rp + [0], [0] + rp, [0] + pqp)] for rp, pqp in zip(r, pq)
        )
        wp2 = tuple([x - y for x, y in zip(part + [0], [0] + part)] for part in p2)
        lhs, rhs = [r1], [kronecker_mul(ql, ql), wp2]
    beta2 = beta * beta
    w = _slot_width(lhs, rhs, beta2)
    nbytes = w // 8
    packed = [(pack_slots(re, nbytes), pack_slots(im, nbytes)) for re, im in lhs + rhs]
    r2, *squares = [complex_mul(v, v) for v in packed]
    if beta.is_odd():
        (p4,) = squares
        left = tuple(x - (x << w) for x in r2)
        right = tuple(reverse_slots(x, 2 * len(p2[0]) - 1, nbytes) - (x << w) for x in p4)
    else:
        q4, wp4 = squares
        left = r2
        right = tuple(x - (y << w) for x, y in zip(q4, wp4))
    if left != complex_mul((beta2.re, beta2.im), right):
        raise InternalInconsistency(
            f"sl({beta} z) violates the first integral of the defining equation"
        )
    if not beta.is_odd() and q.degree() != (n + 2) // 4:
        raise InternalInconsistency(
            f"denominator degree {q.degree()} != ceil((N(beta) - 1) / 4) = {(n + 2) // 4}"
            f" for beta={beta}"
        )


def _slot_width(lhs: list, rhs: list, beta2: GaussInt) -> int:
    """The slot width w, a multiple of 8, of the first integral's check
    lhs = beta2 rhs, where each side is a sum of at most two terms, each a
    square (shifted by t or not) of one of the side's (re, im) lists: R for
    the odd lhs (1 - t) R^2 and R1 for the even lhs R1^2, P^2 for the odd rhs
    rev(P^4) - t P^4, and Q^2 and (1 - t) P^2 for the even rhs
    Q^4 - t ((1 - t) P^2)^2.

    Every part of lhs - beta2 rhs, and of P^4, is below 2^(w - 1):
      - a coefficient of the square of a list of length n whose parts are at
        most M is a sum of at most n products of two coefficients, each with
        parts at most 2 M^2, so its parts are at most 2 n M^2, below
        2^(1 + bits(n) + 2 bits(M));
      - a sum of two terms below 2^b is below 2^(b + 1), which covers the
        factor (1 - t);
      - |Re(beta2 x)| and |Im(beta2 x)| are at most (|Re beta2| + |Im beta2|)
        times the larger part of x, below 2^bits(|Re beta2| + |Im beta2|)
        times its bound;
      - lhs - beta2 rhs is below twice the larger of the two sides' bounds,
        one more bit, and the sign takes one more.
    P^4 is a term of the odd rhs, so its bound is below the rhs's and w
    covers it; so is every list packed, whose parts are below their
    square's bound.
    """

    def side(lists: list) -> int:
        return 1 + max(1 + len(x[0]).bit_length() + 2 * _max_abs(x).bit_length() for x in lists)

    bits = max(side(lhs), side(rhs) + (abs(beta2.re) + abs(beta2.im)).bit_length())
    return (bits + 2 + 7) // 8 * 8


# Keyed by beta itself; only first-quadrant beta run the product formula, and
# _squares reads a half off its first-quadrant associate, so an off-quadrant
# half has no entry, nor does delta = i.  Lambda_beta reads prime maps only:
# the exact ladder leaves 9 entries here and 23 with beta = 13, 13+10i, 17
# and -19 added, so no workload evicts.
@lru_cache(maxsize=64)
def _map(beta: GaussInt) -> tuple:
    """(P, Q) with sl(beta z) = c^parity s P(s^4) / Q(s^4) in lowest terms,
    certified, and Q's leading coefficient in the first quadrant.

    A beta off the first quadrant (re > 0, im >= 0) is e beta0 for a unit e
    and beta0 in it, and sl(e beta0 z) = e sl(beta0 z) gives (e P0, Q0) from
    beta0's map.  Every other beta of norm above 4 is _product of its halves
    u = (beta + delta) / 2 and u - delta, delta = beta (mod 2) of smallest
    norm, with the common factors t -/+ 1 divided out; 1, 1+i and 2 are the
    base cases.
    """
    unit = _unit_to_first_quadrant(beta)
    if unit != ONE:
        p, q = _map(beta * unit)
        p = p * unit.conjugate()
    else:
        n = beta.norm()
        if n <= 4:
            p, q = PolyZi.make([beta]), _BASE_DENOMINATORS[n]
        else:
            # delta = beta (mod 2) of smallest norm: 1 or i, 1+i or 2
            re, im = beta.re % 2, beta.im % 2
            delta = GaussInt(re, im) if re or im else GaussInt(2, 0)
            u = GaussInt((beta.re + delta.re) // 2, (beta.im + delta.im) // 2)
            p, q = _product(u, u - delta, delta)
        p, q = _reduce_zi_fraction(p, q)
    _verify_first_integral(p, q, beta)
    return p, q


def mult_map(beta) -> tuple:
    """sl(beta z) as the reduced graded pair ((N, parity), B) over Z[i][s]:
    sl(beta z) = N(s) c^parity / B(s) in Q(i)(s)[c]/(c^2 - (1-s^4)), with
    N/B in lowest terms, content one and B's leading coefficient in the first
    quadrant.

    Every map has the shape N = s P(s^4), B = Q(s^4), with parity 0 for odd
    beta and 1 for even beta.  The shape: sl(i beta z) = i sl(beta z), and
    c = sl'(z) is unchanged by s -> i s, so the reduced pair satisfies
    N(i s) = i u N(s) and B(i s) = u B(s) for a unit u, and B(0) != 0 forces
    u = 1.  The parity: sl(2 omega - z) = sl(z) and
    sl'(2 omega - z) = -sl'(z), with sl(omega) = 1, and modulo the period
    lattice 2(1+i) omega Z[i], 2 beta omega = 2 omega for odd beta and
    2 beta omega = 0 for even beta.  So the map is held as (P, Q) in t = s^4
    (see _map).

    1, 1+i and 2 are written down, and a beta off the first quadrant, e beta0
    for a unit e, is e sl(beta0 z).  Every other beta, prime or composite,
    odd or even, comes from the product formula
    sl(u+v) sl(u-v) = (sl^2 u - sl^2 v) / (1 + sl^2 u sl^2 v) with
    u + v = beta and u - v = delta, delta = beta (mod 2) of smallest norm
    (see _product), and the factors t - 1 and t + 1 that its two terms share
    are divided out (see _reduce_zi_fraction).

    The finished pair is then certified in t by
    _verify_first_integral; the numerator degree N(beta) for odd beta and
    the denominator degree for even beta rule out a common factor of N and
    B.  Put
    f = N(sl z) c^parity / B(sl z) with c = sl'(z).  The first integral says
    f'^2 = beta^2 (1 - f^4), and P(0) = beta Q(0) != 0 says f(0) = 0 and
    f'(0) = beta.  Near z = 0 the equation therefore reads
    f' = beta sqrt(1 - f^4) with the principal root, a right-hand side
    analytic in f, whose solution through f(0) = 0 is unique: f = sl(beta z).
    Q(0) != 0 is needed because (t P, t Q) satisfies the same first integral;
    the sign because -sl(beta z) does.  i / sl(beta z), which satisfies it
    too, is not of the shape.  For odd beta the verifier also checks
    B = unit * s^N(beta) N(1/s) (Abel's theorem; Rosen, Amer. Math. Monthly
    88, 1981).
    """
    beta = as_gauss(beta)
    if beta.is_zero():
        raise InputError("mult_map requires beta != 0")
    p, q = _map(beta)
    return (_from_t(p, 1), 0 if beta.is_odd() else 1), _from_t(q, 0)


# -- all-torsion and lemnatomic polynomials -----------------------------------


def _torsion_t(beta: GaussInt) -> PolyZi:
    """P~ with T_beta = X P~(X^4): P of the first-quadrant associate's map
    (certified once, for every associate), times conj(lc P) when lc P != 1.

    lc P is a unit.  A product-formula map has joint content one, and
    Q = unit * rev(P), so content(P) = 1; T_beta is monic over Z[i], so lc P
    divides every coefficient of P.  An associate's map is P times a unit.
    """
    p, _ = _map(beta * _unit_to_first_quadrant(beta))
    lead = p.leading()
    if not lead.is_unit():
        raise InternalInconsistency(f"all-torsion numerator of beta={beta} has leading coefficient {lead}")
    return p if lead == ONE else p * lead.conjugate()


def all_torsion_poly(beta) -> PolyZi:
    """T_beta: monic, degree N(beta), roots are all beta-torsion sl values."""
    return _from_t(_torsion_t(_check_beta(beta)), 1)


def divisors_up_to_units(beta) -> list:
    """All primary divisors of odd beta (including 1 and beta), sorted by norm."""
    beta = as_gauss(beta)
    if beta.is_zero():
        raise InputError("beta must be nonzero")
    if not beta.is_odd():
        raise InputError("beta must be odd (coprime to 1+i)")
    divisors = [ONE]
    for prime, exp in factor(beta)[1]:
        divisors = [d * prime.value**k for d in divisors for k in range(exp + 1)]
    # a product of primary primes is primary: = 1 mod (1+i)^3 is multiplicative
    return sorted(divisors, key=lambda g: (g.norm(), g.re, g.im))


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
        """The record of poly as Lambda_beta, after the invariants every
        lemnatomic polynomial has: degree phi(beta), monic, in Z[i][X^4],
        Lambda_beta(0), and Lambda_beta(1) a unit times 2^(phi(beta) / 4).

        Lambda_beta(1): the roots of Lambda_beta fall into phi / 4 unit
        orbits v, iv, -v, -iv, so Lambda_beta(1) is the product of 1 - v^4
        over them.  With sl((1+i) z) = (1+i) s c / (1 - s^4) and c^2 = 1 - s^4,
        sl((1+i) z)^2 = 2i s^2 / (1 - s^4), so 1 - v^4 = 2i v^2 / w^2 for
        v = sl(z0) and w = sl((1+i) z0), z0 a primitive beta-torsion point (v
        and w are finite and nonzero, and v^4 != 1, since beta is odd).
        Multiplication by 1+i permutes the primitive beta-torsion points and
        commutes with the units, so it permutes the orbits, on which s^4 is
        constant: the product of w^4 over the orbits is that of v^4, the
        product of v^2 / w^2 is +-1, and Lambda_beta(1) = +-(2i)^(phi / 4).
        The check is O(deg) additions, and a single coefficient off by any
        nonzero amount breaks it.
        """
        if method not in ("exact", "numeric", "both"):
            raise InputError(f"unknown method {method!r}")
        want = phi_norm(beta)
        if poly.degree() != want:
            raise InternalInconsistency(
                f"lemnatomic degree {poly.degree()} != phi_norm {want} for beta={beta}"
            )
        if not poly.is_monic():
            raise InternalInconsistency(f"lemnatomic polynomial for beta={beta} is not monic")
        # Lambda_beta lies in Z[i][X^4]: its roots come in unit orbits
        # v, iv, -v, -iv, as sl(iz) = i sl(z).
        if any(not c.is_zero() for j in (1, 2, 3) for c in poly.coeffs[j::4]):
            raise InternalInconsistency(
                f"lemnatomic polynomial for beta={beta} is not a polynomial in X^4"
            )
        # Lambda_beta(0) is the primary prime pi when beta = unit * pi^k, and
        # 1 when beta has two distinct prime factors.
        _, facs = factor(beta)
        constant = facs[0][0].value if len(facs) == 1 else ONE
        if poly[0] != constant:
            raise InternalInconsistency(
                f"lemnatomic polynomial for beta={beta} has constant term {poly[0]}, not {constant}"
            )
        value_at_1 = GaussInt(sum(c.re for c in poly.coeffs), sum(c.im for c in poly.coeffs))
        if not any(value_at_1 == u * 2 ** (want // 4) for u in UNITS):
            raise InternalInconsistency(
                f"lemnatomic polynomial for beta={beta} has value {value_at_1} at 1,"
                f" not a unit times 2^{want // 4}"
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


def _hom(g: PolyZi, p: PolyZi, q: PolyZi) -> PolyZi:
    """H(t) = sum_k g_k (t P^4)^k (Q^4)^(d - k) = Q^(4d) g(R(s)^4), d = deg g,
    for R(s) = s P(s^4) / Q(s^4) and t = s^4."""
    d = g.degree()
    p2, q2 = p * p, q * q
    x = _times_t(p2 * p2)
    y_powers = [_ZI_ONE, q2 * q2]
    for _ in range(d - 1):
        y_powers.append(y_powers[-1] * y_powers[1])
    acc = PolyZi.make([g[d]])
    for k in range(d - 1, -1, -1):
        acc = acc * x + y_powers[d - k] * g[k]
    return acc


# Keyed by the primary beta from _check_beta, so associates share one entry;
# a composite beta adds its cofactors'.  The exact ladder (N(beta) up to 125)
# leaves 7 entries, and 13 with 13, 13+10i, 17 and -19, so none is evicted.
@lru_cache(maxsize=64)
def _lemnatomic_poly(beta: GaussInt) -> PolyZi:
    """G with Lambda_beta = G(X^4), for primary non-unit beta.

    A prime beta's G is P~ (_torsion_t).  Otherwise let pi be beta's first
    prime factor of largest norm q, gamma = beta / pi, d = deg G_gamma and
    (P, Q) the certified map of pi's first-quadrant associate (a unit does
    not change R_pi^4).  H = _hom(G_gamma, P, Q) = Q^(4d) G_gamma(R_pi(s)^4)
    times conj(lc H) is G_beta G_gamma when pi does not divide gamma and
    G_beta when pi | gamma, as Phi_pn Phi_n = Phi_n(x^p) and Phi_pn = Phi_n(x^p).
    Q and t P^4 have no common zero, so H(sl(z)^4) = 0 exactly when
    sl(pi z)^4 is a root of G_gamma, that is when pi z is a primitive
    gamma-torsion point: when z is a primitive beta-torsion point or, if pi
    does not divide gamma (pi is then invertible mod gamma), a primitive
    gamma-torsion point.  These roots are simple and distinct, and there are
    phi(beta) / 4 (+ phi(gamma) / 4 when pi does not divide gamma) = d q of
    them, as phi(beta) = phi(gamma) (q - 1) or phi(gamma) q.  That is deg H:
    only the term k = d reaches degree d (4 deg P + 1), so lc H = lc(P)^(4d).

    Checks, each raising InternalInconsistency or NotDivisible: every prime
    map is certified (_map), lc H is a unit, the division leaves no
    remainder, LemnatomicRecord.build's invariants hold, and so does the
    reduction law H conj(lc H) = G_gamma(Y^q) (mod pi), the power-free form
    of G_beta = G_gamma^(q - 1) (G_gamma^q when pi | gamma), as c^q = c on
    Z[i]/(pi).
    """
    _, facs = factor(beta)
    if sum(e for _, e in facs) == 1:
        return _torsion_t(beta)
    prime, e = max(facs, key=lambda fe: fe[0].norm)  # the first of largest norm
    pi, q = prime.value, prime.norm
    g = _lemnatomic_poly(exact_div(beta, pi))
    h = _hom(g, *_map(pi * _unit_to_first_quadrant(pi)))
    lead = h.leading()
    if not lead.is_unit():
        raise InternalInconsistency(f"H of beta={beta} at pi={pi} has leading coefficient {lead}")
    h = h * lead.conjugate()
    quotient = h if e > 1 else exact_divide(h, g)
    field = residue_field(prime)
    g_of_y_q = [ZERO] * (g.degree() * q + 1)
    g_of_y_q[::q] = g.coeffs
    if reduce_poly(h, field) != reduce_poly(PolyZi(tuple(g_of_y_q)), field):
        raise InternalInconsistency(f"Lambda_{beta} breaks the reduction law at pi={pi}")
    return quotient


def lemnatomic_exact(beta) -> LemnatomicRecord:
    """Lemnatomic polynomial of beta by the exact pipeline."""
    beta = _check_beta(beta)
    poly = _from_t(_lemnatomic_poly(beta), 0)
    return LemnatomicRecord.build(beta, poly, method="exact", precision_bits=0)
