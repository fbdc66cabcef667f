"""Residue fields of Z[i] at odd Gaussian primes, and polynomial arithmetic over them.

A split prime pi (norm p) gives F_p; the image of i is determined by the
reduction map Z[i] -> Z[i]/(pi), not by an abstract choice of square root.
An inert prime pi (norm p^2) gives F_{p^2}, represented as pairs (x, y)
meaning x + y*iota with iota^2 = -1; reduction of a+bi is then coefficientwise.

Field elements are plain ints in [0, p) for degree 1 and int pairs for
degree 2, so equality is structural and hashing is free.

The internal helpers take the field as K: the bare int p for F_p, or the
ResidueField of an inert prime.  Over F_p the polynomial work runs on int
coefficient lists: Euclid for gcd and squarefree, updating the remainder in
place slot by slot, and powers modulo f as a square-and-multiply on
Kronecker-packed ints (_PackedModulus), whose slots are wide enough that
the low ones are taken mod p only after every other squaring.  Over an
inert prime it runs on the pairs through ResidueField, one field operation
per coefficient.  The public functions pass _kernel(f.field); the root scan
passes p and the nonzero terms (j, c) of h mod pi straight to _root_status,
the entry under root_status, so a split prime costs it no GaussPrime,
ResidueField or PolyFq, and no work on the zero coefficients.

root_status, the root scan's test, first writes f as X^k * g(X^e)
with g(0) != 0 and e = gcd(d, q - 1), d the gcd of the exponents of f's
nonzero terms (_deflate, which reads those terms alone), and then works on
g.  root_status reads complete splitting and the existence of a root off
one power Y^((q-1)/e) mod g, so a scan that needs both pays for one power
modulo g per prime.  Complex
multiplication (sl(iz) = i*sl(z)) puts every lemnatomic polynomial in
Z[i][X^4], and q = 1 mod 4 at every odd prime, so there 4 divides e and g
has at most a quarter of the degree.  splits_completely, has_root,
squarefree and factor_degrees work on f itself: they are the single-prime
predicates the scans are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import lshift
from typing import Union

from .errors import InputError
from .gaussint import GaussPrime, _make_prime, as_gauss, is_prime
from .zipoly import PolyZi

__all__ = [
    "ResidueField",
    "PolyFq",
    "residue_field",
    "reduce_poly",
    "poly_gcd",
    "squarefree",
    "splits_completely",
    "has_root",
    "root_status",
    "factor_degrees",
]

Element = Union[int, tuple]


@dataclass(frozen=True, slots=True)
class ResidueField:
    """The field Z[i]/(pi) for an odd Gaussian prime pi.

    degree 1 (split): elements are ints mod p, i_image is an int.
    degree 2 (inert): elements are (x, y) pairs meaning x + y*iota, i_image = (0, 1).
    """

    pi: GaussPrime
    p: int
    degree: int
    i_image: Element

    @property
    def size(self) -> int:
        return self.p**self.degree

    def zero(self) -> Element:
        return 0 if self.degree == 1 else (0, 0)

    def one(self) -> Element:
        return 1 if self.degree == 1 else (1, 0)

    def from_int(self, n: int) -> Element:
        return n % self.p if self.degree == 1 else (n % self.p, 0)

    def reduce_gauss(self, z) -> Element:
        z = as_gauss(z)
        if self.degree == 1:
            return (z.re + z.im * self.i_image) % self.p
        return (z.re % self.p, z.im % self.p)

    def add(self, a: Element, b: Element) -> Element:
        if self.degree == 1:
            return (a + b) % self.p
        return ((a[0] + b[0]) % self.p, (a[1] + b[1]) % self.p)

    def neg(self, a: Element) -> Element:
        if self.degree == 1:
            return (-a) % self.p
        return ((-a[0]) % self.p, (-a[1]) % self.p)

    def sub(self, a: Element, b: Element) -> Element:
        return self.add(a, self.neg(b))

    def mul(self, a: Element, b: Element) -> Element:
        if self.degree == 1:
            return (a * b) % self.p
        x1, y1 = a
        x2, y2 = b
        # iota^2 = -1
        return ((x1 * x2 - y1 * y2) % self.p, (x1 * y2 + y1 * x2) % self.p)

    def inv(self, a: Element) -> Element:
        if a == self.zero():
            raise InputError("division by zero in residue field")
        if self.degree == 1:
            return pow(a, -1, self.p)
        x, y = a
        # (x + y*iota)(x - y*iota) = x^2 + y^2
        n_inv = pow((x * x + y * y) % self.p, -1, self.p)
        return ((x * n_inv) % self.p, (-y * n_inv) % self.p)

    def is_zero(self, a: Element) -> bool:
        return a == self.zero()


def residue_field(pi) -> ResidueField:
    """Construct Z[i]/(pi) for an odd Gaussian prime pi (any associate accepted)."""
    if isinstance(pi, GaussPrime):
        prime = pi
    else:
        z = as_gauss(pi)
        if not is_prime(z):
            raise InputError(f"{z} is not a Gaussian prime")
        prime = _make_prime(z)
    if prime.kind == "ramified":
        raise InputError("residue fields are defined for odd primes only; got the ramified prime")
    a, b = prime.value.re, prime.value.im
    if prime.kind == "split":
        p = prime.norm
        # a + b*i = 0 in the field forces i -> -a * b^{-1}; the map is authoritative.
        image = (-a * pow(b, -1, p)) % p
        return ResidueField(pi=prime, p=p, degree=1, i_image=image)
    # inert: value is -p for a rational prime p = 3 mod 4
    p = -a
    return ResidueField(pi=prime, p=p, degree=2, i_image=(0, 1))


@dataclass(frozen=True, slots=True)
class PolyFq:
    """Polynomial over a residue field; coefficients ascending, leading nonzero."""

    field: ResidueField
    coeffs: tuple

    @staticmethod
    def make(field: ResidueField, coeffs) -> "PolyFq":
        cs = list(coeffs)
        while cs and field.is_zero(cs[-1]):
            cs.pop()
        return PolyFq(field=field, coeffs=tuple(cs))

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Element:
        if self.is_zero():
            raise InputError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return not self.is_zero() and self.leading() == self.field.one()

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree(), -1, -1):
            c = self.coeffs[k]
            if self.field.is_zero(c):
                continue
            cs = str(c) if self.field.degree == 1 else f"({c[0]}+{c[1]}j)"
            if k == 0:
                parts.append(cs)
            elif k == 1:
                parts.append(f"{cs}*X")
            else:
                parts.append(f"{cs}*X^{k}")
        return " + ".join(parts)


def reduce_poly(f: PolyZi, pi) -> PolyFq:
    """Coefficientwise reduction of f through Z[i] -> Z[i]/(pi)."""
    field = pi if isinstance(pi, ResidueField) else residue_field(pi)
    if field.degree == 1:
        p, i = field.p, field.i_image
        return PolyFq.make(field, [(c.re + c.im * i) % p for c in f.coeffs])
    return PolyFq.make(field, [field.reduce_gauss(c) for c in f.coeffs])


# -- split primes: int lists over F_p -------------------------------------------
#
# For degree 1 the coefficients are already ints in [0, p), so these helpers
# work on them directly instead of calling ResidueField once per coefficient.


def _int_trim(cs: list) -> list:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _int_gcd(p: int, a: tuple, b: tuple) -> tuple:
    """Monic gcd over F_p by Euclid; a and b trimmed, reduced mod p, not both zero.

    The divisor is never rescaled: each quotient coefficient carries its
    leading inverse instead, and only the result is made monic.  The
    remainder is updated in place, one slot at a time.
    """
    a, b = list(a), list(b)
    while b:
        inv = pow(b[-1], -1, p)
        db = len(b) - 1
        while len(a) > db:
            q = a.pop() * inv % p
            if q:
                s = len(a) - db
                for j in range(db):
                    a[s + j] = (a[s + j] - q * b[j]) % p
        a, b = b, _int_trim(a)
    inv = pow(a[-1], -1, p)
    return tuple(c * inv % p for c in a)


class _PackedModulus:
    """Arithmetic modulo a monic f of degree n >= 1 over F_p, Kronecker-packed.

    A polynomial of degree < n is one int holding coefficient k in bits
    [k*w, (k+1)*w), so a product is one big-int multiply.  Its high slots
    are folded back from the top down: the value h read off slot n + k
    (mod p) is cleared by adding h times the k-th packed row
    X^k * (X^n mod f), a shift of one row computed once per (f, p).  A
    multiply by X is a shift of the product before the fold, so there is one
    row for each of the slots n .. 2n - 1.

    The high slots are read mod p at every fold, but the n low slots are
    taken mod p only after every other fold, and once at the end.  From
    slots below p, a product slot is a sum of at most n products below p^2,
    and the fold adds at most n row terms h * c, each below p^2 too: the
    slot leaves the fold at most L = 2n(p - 1)^2.  One more fold from slots
    at most L, a square or a multiply by a base with slots below p, leaves a
    slot at most n*L^2 + n(p - 1)^2.  w is the bit length of that bound, so
    no slot ever carries into the next, whatever the size of p; the slots
    are taken mod p before the next fold.
    """

    __slots__ = ("p", "n", "width", "mask", "low", "slots", "rows")

    def __init__(self, p: int, f: tuple):
        n = len(f) - 1
        lazy = 2 * n * (p - 1) ** 2
        w = (n * lazy * lazy + n * (p - 1) ** 2).bit_length()
        self.p, self.n, self.width = p, n, w
        self.mask = (1 << w) - 1
        self.low = (1 << (n * w)) - 1
        self.slots = range(0, n * w, w)
        tail = sum(map(lshift, [-c % p for c in f[:-1]], self.slots))  # X^n mod f
        self.rows = [(k * w, tail << ((k - n) * w)) for k in range(2 * n - 1, n - 1, -1)]

    def pow_mod(self, a: tuple, e: int) -> tuple:
        """a^e mod f by square-and-multiply from the top bit of e.

        a is reduced mod f, or is X.  For a = X the multiply is a shift of
        the square, and the leading bits of e whose value stays below n give
        the starting monomial without any product.  Each step is one
        product: S squares, X squares and shifts, M multiplies by a.
        """
        bits, w = format(e, "b"), self.width
        if a == (0, 1):
            j = min(len(bits), (self.n - 1).bit_length())
            if e >> (len(bits) - j) >= self.n:
                j -= 1
            x, base = 1 << ((e >> (len(bits) - j)) * w), None
            steps = bits[j:].replace("0", "S").replace("1", "X")
        else:
            x, base = 1, sum(map(lshift, a, self.slots))
            steps = bits.replace("0", "S").replace("1", "SM")
        p, mask, low, slots = self.p, self.mask, self.low, self.slots
        rows = self.rows
        product_rows = rows[1:]  # slot 2n - 1 is filled only by the shift
        lazy = False  # the low slots of x are not yet taken mod p
        for step in steps:
            if step == "X":
                x = x * x << w
                folds = rows
            else:
                x *= x if step == "S" else base
                folds = product_rows
            for s, row in folds:
                x += (x >> s & mask) % p * row
            x &= low
            if lazy:
                x = sum([((x >> s & mask) % p) << s for s in slots])
            lazy = not lazy
        return tuple(_int_trim([(x >> s & mask) % p for s in slots]))


# -- inert primes: pairs through ResidueField ------------------------------------


def _pmul(F: ResidueField, a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [F.zero()] * (len(a) + len(b) - 1)
    for j, x in enumerate(a):
        if F.is_zero(x):
            continue
        for k, y in enumerate(b):
            out[j + k] = F.add(out[j + k], F.mul(x, y))
    while out and F.is_zero(out[-1]):
        out.pop()
    return tuple(out)


def _pdivmod(F: ResidueField, a: tuple, b: tuple) -> tuple:
    """(quotient, remainder) of a by nonzero b."""
    if not b:
        raise InputError("polynomial division by zero")
    lead_inv = F.inv(b[-1])
    r = list(a)
    db = len(b) - 1
    out = [F.zero()] * max(len(a) - db, 0)
    while len(r) - 1 >= db and r:
        if F.is_zero(r[-1]):
            r.pop()
            continue
        q = F.mul(r[-1], lead_inv)
        shift = len(r) - 1 - db
        out[shift] = q
        for k in range(len(b)):
            r[shift + k] = F.sub(r[shift + k], F.mul(q, b[k]))
        while r and F.is_zero(r[-1]):
            r.pop()
    while out and F.is_zero(out[-1]):
        out.pop()
    return tuple(out), tuple(r)


def _pmonic(F: ResidueField, a: tuple) -> tuple:
    if not a or a[-1] == F.one():
        return a
    s = F.inv(a[-1])
    return tuple(F.mul(c, s) for c in a)


def _pderiv(F: ResidueField, a: tuple) -> tuple:
    out = [F.mul(c, F.from_int(k)) for k, c in enumerate(a)][1:]
    while out and F.is_zero(out[-1]):
        out.pop()
    return tuple(out)


def _pgcd(F: ResidueField, a: tuple, b: tuple) -> tuple:
    while b:
        a, b = b, _pdivmod(F, a, b)[1]
    return _pmonic(F, a)


def _ppow_mod(F: ResidueField, a: tuple, e: int, f: tuple) -> tuple:
    result = _pdivmod(F, (F.one(),), f)[1]
    base = _pdivmod(F, a, f)[1]
    while e:
        if e & 1:
            result = _pdivmod(F, _pmul(F, result, base), f)[1]
        e >>= 1
        if e:
            base = _pdivmod(F, _pmul(F, base, base), f)[1]
    return result


# -- either kind: K is the int p for F_p, or a ResidueField ----------------------
#
# The split path passes the bare int p, so a scan needs no field object per
# prime; the public functions pass _kernel(f.field).  A ResidueField of
# degree 1 is also accepted, and then runs the per-element path.


def _kernel(F: ResidueField):
    """K for the field F: p when F = F_p, else F itself."""
    return F.p if F.degree == 1 else F


def _gcd(K, a: tuple, b: tuple) -> tuple:
    return _int_gcd(K, a, b) if type(K) is int else _pgcd(K, a, b)


def _power(K, f: tuple, e: int, a: tuple | None = None) -> tuple:
    """a^e mod monic f of degree >= 1, with a = X by default."""
    if type(K) is int:
        return _PackedModulus(K, f).pow_mod((0, 1) if a is None else a, e)
    return _ppow_mod(K, (K.zero(), K.one()) if a is None else a, e, f)


def _minus_x(K, a: tuple, k: int = 1) -> tuple:
    """a - X^k."""
    if type(K) is int:
        out = list(a) + [0] * (k + 1 - len(a))
        out[k] = (out[k] - 1) % K
        return tuple(_int_trim(out))
    out = list(a) + [K.zero()] * (k + 1 - len(a))
    out[k] = K.sub(out[k], K.one())
    while out and K.is_zero(out[-1]):
        out.pop()
    return tuple(out)


def _deflate(K, terms) -> tuple:
    """(k, g, e) with f = X^k * g(X^e) and g(0) != 0, for nonzero f given by
    its nonzero terms (j, c), exponents j ascending.

    e = gcd(d, q - 1), where d is the gcd of the exponents of the terms of
    f / X^k, so a term c*X^j is g's coefficient (j - k) / e.  As e divides
    q - 1, X -> X^e maps F_q^* e-to-1 onto the e-th powers, which are the y
    with y^((q-1)/e) = 1, and p does not divide e: a root y of g of
    multiplicity m gives e roots of f of multiplicity m if y is an e-th
    power, none otherwise.  So f / X^k has a root iff g has one with
    y^((q-1)/e) = 1, and splits into distinct linear factors iff
    Y^((q-1)/e) = 1 (mod g).
    """
    zero, q = (0, K) if type(K) is int else (K.zero(), K.size)
    k = terms[0][0]
    e = gcd(q - 1, *[j - k for j, _ in terms])
    g = [zero] * ((terms[-1][0] - k) // e + 1)
    for j, c in terms:
        g[(j - k) // e] = c
    return k, tuple(g), e


def poly_gcd(f: PolyFq, g: PolyFq) -> PolyFq:
    """Monic gcd via Euclid."""
    if f.field is not g.field and f.field != g.field:
        raise InputError("gcd of polynomials over different fields")
    if f.is_zero() and g.is_zero():
        raise InputError("gcd(0, 0) is undefined")
    return PolyFq(field=f.field, coeffs=_gcd(_kernel(f.field), f.coeffs, g.coeffs))


def squarefree(f: PolyFq) -> bool:
    """True iff gcd(f, f') is constant."""
    if f.is_zero():
        raise InputError("squarefree test of the zero polynomial")
    K, cs = _kernel(f.field), f.coeffs
    if type(K) is int:
        d = _int_trim([j * c % K for j, c in enumerate(cs)][1:])
    else:
        d = _pderiv(K, cs)
    if not d:
        # constant: vacuously squarefree; nonconstant with zero derivative is a p-th power
        return len(cs) == 1
    return len(_gcd(K, cs, d)) == 1


def splits_completely(f: PolyFq) -> bool:
    """True iff f is squarefree and a product of linear factors: X^q = X (mod f).

    X^q - X is the product of X - a over the whole field, each factor once,
    so f divides it exactly when f splits into distinct linear factors; no
    separate squarefree test is needed.
    """
    if f.is_zero() or f.degree() < 1:
        raise InputError("splits_completely requires a nonconstant polynomial")
    if not f.is_monic():
        raise InputError("splits_completely requires a monic polynomial")
    F = f.field
    return _power(_kernel(F), f.coeffs, F.size) == _pdivmod(F, (F.zero(), F.one()), f.coeffs)[1]


def has_root(f: PolyFq) -> bool:
    """True iff f has a root in the field: deg gcd(X^q - X, f) >= 1."""
    if f.is_zero():
        raise InputError("has_root of the zero polynomial")
    F = f.field
    if f.degree() < 1:
        return False
    K, monic = _kernel(F), _pmonic(F, f.coeffs)
    return len(_gcd(K, monic, _minus_x(K, _power(K, monic, F.size)))) > 1


# root_status values, ordered: a polynomial that splits also has a root.
NO_ROOT, ROOT, SPLITS = 0, 1, 2


def root_status(f: PolyFq) -> int:
    """NO_ROOT, ROOT or SPLITS for monic f of degree >= 1, from one power.

    With f = X^k * g(X^e) (_deflate) and r = Y^((q-1)/e) mod g: a double root
    at 0 (k > 1) rules splitting out; otherwise f splits into distinct linear
    factors iff g is constant (f = X) or r = 1, and f has a root iff k = 1 or
    deg gcd(g, r - 1) >= 1.
    The gcd runs only when f has neither a root at 0 nor a split.
    """
    if f.degree() < 1 or not f.is_monic():
        raise InputError("root_status requires a monic nonconstant polynomial")
    F = f.field
    return _root_status(_kernel(F), [(j, c) for j, c in enumerate(f.coeffs) if not F.is_zero(c)])


def _root_status(K, terms) -> int:
    """root_status on the nonzero terms (j, c) of a monic f of degree >= 1
    over K, exponents ascending: the split scan's entry."""
    k, g, e = _deflate(K, terms)
    if k > 1:
        return ROOT
    if len(g) == 1:
        return SPLITS  # f = X
    q = K if type(K) is int else K.size
    r = _minus_x(K, _power(K, g, (q - 1) // e), 0)  # Y^((q-1)/e) - 1 mod g
    if not r:
        return SPLITS
    return ROOT if k or len(_gcd(K, g, r)) > 1 else NO_ROOT


def factor_degrees(f: PolyFq) -> tuple:
    """Degrees of the irreducible factors of squarefree monic f, nondecreasing.

    Distinct-degree factorization: the degree-d part of f is gcd(f, X^(q^d) - X).
    """
    if f.is_zero() or not f.is_monic():
        raise InputError("factor_degrees requires a monic polynomial")
    if not squarefree(f):
        raise InputError("factor_degrees requires a squarefree polynomial")
    F = f.field
    K, rem = _kernel(F), f.coeffs
    degrees: list[int] = []
    h = _pdivmod(F, (F.zero(), F.one()), rem)[1]
    d = 0
    while len(rem) - 1 > 0:
        d += 1
        if (len(rem) - 1) < 2 * d:
            # remainder is irreducible
            degrees.append(len(rem) - 1)
            break
        h = _power(K, rem, F.size, h)
        g = _gcd(K, rem, _minus_x(K, h))
        if len(g) - 1 > 0:
            part = len(g) - 1
            degrees.extend([d] * (part // d))
            rem, inexact = _pdivmod(F, rem, g)
            if inexact:
                raise InputError("inexact polynomial division")
            rem = _pmonic(F, rem)
            h = _pdivmod(F, h, rem)[1]
    degrees.sort()
    return tuple(degrees)
