"""Residue fields of Z[i] at odd Gaussian primes, and polynomial arithmetic over them.

An element of Z[i]/(pi) is a Gaussian integer reduced mod pi.  A split
prime pi (norm p) gives F_p: the element is an int in [0, p), and i maps to
the image that the reduction map Z[i] -> Z[i]/(pi) forces, not to an
abstract choice of square root.  An inert prime pi = -p (norm p^2) gives
F_{p^2} = F_p[i]: the element is a GaussInt x + yi with 0 <= x, y < p,
a + bi reduces coefficientwise, and i maps to i.  Either kind does its
field arithmetic with its own operators mod p (a GaussInt inverts by
pow(z, -1, p)), so equality is structural and hashing is free.

The internal helpers take p and polynomials as coefficient lists,
ascending, whose coefficients bring their own arithmetic: one Euclid for
gcd and squarefree, updating the remainder in place slot by slot, one long
division, and the same root tests serve both fields.  Powers modulo a monic
f of degree n run on one packed kernel, _power, for both fields: a
square-and-multiply on a single Kronecker-packed int.  The root scan passes
p, the nonzero terms (j, c) of h mod pi and the field degree straight to
_root_status, the entry under root_status, so a prime costs it no
GaussPrime, ResidueField or PolyFq, no work on the zero coefficients, and,
at a split prime, nothing but int arithmetic on plain locals.

The packed kernel.  A polynomial of degree < n is one int, coefficient k
in slot k.  A product is one big-int multiply; its high slots are folded
back from the top down: the value read off slot n + k, taken mod p, is
cleared by adding it times the packed row X^k * (X^n mod f), a shift of
one row computed per call, and the high slots are dropped once all are
read.  A multiply by X is a shift of the square before the fold.

Over F_p a slot is w bits.  The high slots are read mod p at every fold,
but the n low slots are taken mod p only after every other fold, and once
at the end.  From slots below p, a product slot is a sum of at most n
products below p^2, and the fold adds at most n row terms h * c, each
below p^2 too: the slot leaves the fold at most L = 2n(p - 1)^2.  One more
fold from slots at most L, a square or a multiply by a base with slots
below p, leaves a slot at most n*L^2 + n(p - 1)^2.  w is the bit length of
that bound, so no slot ever carries into the next, whatever the size of p.
The width rests on this proof, not on a test: on the hardest inputs the
tests use (f = X^n + ... + 1, so every slot of X^n mod f is p - 1, and a
base X or one with every coefficient p - 1) the largest slot reaches a
quarter of the bound, more than 2x slack, so a width one bit short would
not carry on them either.

Over F_{p^2} = F_p[i] a slot is three sub-slots of w bits, for 1, i and
i^2, and x + yi packs as x + (y << w); the product of two such slots puts
the i^2 terms in the third sub-slot.  After each product one masked fold
turns i^2 into -1: with H the third sub-slots of the product, it adds
O - H - (H >> 2w), where O holds in every first sub-slot the offset c, the
least multiple of p at least n(p - 1)^2.  c is 0 in F_p, and it keeps the
first sub-slot from going negative, as H's sub-slots are at most
n(p - 1)^2.  A high slot h0 + h1*i, each part read mod p, then folds in as
h0 * row + h1 * (i * row), i * row packed beside row: a row has no i^2
part, so the fold adds to the first two sub-slots alone.  F_{p^2} takes
its low sub-slots mod p at every step.  So from sub-slots below p a
product's are at most n(p - 1)^2, 2n(p - 1)^2 and n(p - 1)^2; after the
i^2 fold the first is at most n(p - 1)^2 + c; the row fold adds at most n
terms, each at most 2(p - 1)^2, to each.  The first sub-slot ends at most
3n(p - 1)^2 + c and the second at most 4n(p - 1)^2, which is no more, as
c >= n(p - 1)^2: w is the bit length of 3n(p - 1)^2 + c.

root_status, the root scan's test, first writes f as X^k * g(X^e)
with g(0) != 0 and e = gcd(d, q - 1), d the gcd of the exponents of f's
nonzero terms (read off those terms alone), and then works on g.
root_status reads complete splitting and the existence of a root off one
power Y^((q-1)/e) mod g, so a scan that needs both pays for one power
modulo g per prime.  Complex
multiplication (sl(iz) = i*sl(z)) puts every lemnatomic polynomial in
Z[i][X^4], and q = 1 mod 4 at every odd prime, so there 4 divides e and g
has at most a quarter of the degree.  splits_completely, has_root,
squarefree and factor_degrees work on f itself, on the same kernel: they
are the single-prime predicates the scans are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import lshift

from .errors import InputError, InternalInconsistency
from .gaussint import I, ONE, ZERO, GaussInt, GaussPrime, _make_prime, as_gauss, is_prime
from .zipoly import PolyZi

__all__ = [
    "ResidueField",
    "PolyFq",
    "residue_field",
    "reduce_poly",
    "squarefree",
    "splits_completely",
    "has_root",
    "root_status",
    "factor_degrees",
]

# A PEP 604 union, not typing.Union, whose process-wide cache would keep
# GaussInt, and with it a replaced gaussint module, alive across a re-import.
Element = int | GaussInt


@dataclass(frozen=True, slots=True)
class ResidueField:
    """The field Z[i]/(pi) for an odd Gaussian prime pi, as a plain value.

    degree 1 (split): elements are ints in [0, p), i_image is an int.
    degree 2 (inert): elements are GaussInts x + yi with 0 <= x, y < p, i_image = i.
    """

    pi: GaussPrime
    p: int
    degree: int
    i_image: Element

    @property
    def size(self) -> int:
        return self.p**self.degree

    def zero(self) -> Element:
        return 0 if self.degree == 1 else ZERO

    def one(self) -> Element:
        return 1 if self.degree == 1 else ONE


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
    return ResidueField(pi=prime, p=p, degree=2, i_image=I)


@dataclass(frozen=True, slots=True)
class PolyFq:
    """Polynomial over a residue field; coefficients ascending, leading nonzero."""

    field: ResidueField
    coeffs: tuple

    @staticmethod
    def make(field: ResidueField, coeffs) -> "PolyFq":
        return PolyFq(field=field, coeffs=tuple(_trim(list(coeffs))))

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
            if not c:
                continue
            cs = str(c) if self.field.degree == 1 else f"({c.re}+{c.im}j)"
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
    p, i = field.p, field.i_image
    if field.degree == 1:
        return PolyFq.make(field, [(c.re + c.im * i) % p for c in f.coeffs])
    return PolyFq.make(field, [c % p for c in f.coeffs])


# -- coefficient lists over F_p or F_{p^2} ------------------------------------
#
# The helpers take p and lists of ints or of GaussInts reduced mod p; +, -,
# *, % p, truth and pow(c, -1, p) act on either, so one body serves both
# fields.  _power alone branches on the coefficient type.


def _trim(cs: list) -> list:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _monic(p: int, a: tuple) -> tuple:
    inv = pow(a[-1], -1, p)
    return tuple([c * inv % p for c in a])


def _gcd(p: int, a: tuple, b: tuple) -> tuple:
    """A gcd by Euclid, not made monic (_monic does that where it is kept);
    a and b trimmed, reduced mod p, not both zero.

    The divisor is never rescaled: each quotient coefficient carries its
    leading inverse instead.  The remainder is updated in place, one slot at
    a time.
    """
    a, b = list(a), list(b)
    while len(b) > 1:
        inv = pow(b[-1], -1, p)
        db = len(b) - 1
        while len(a) > db:
            q = a.pop() * inv % p
            if q:
                s = len(a) - db
                for j in range(db):
                    a[s + j] = (a[s + j] - q * b[j]) % p
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    return tuple(b or a)  # a nonzero constant b divides a


def _divmod(p: int, a: tuple, b: tuple) -> tuple:
    """(quotient, remainder) of a by nonzero b, both trimmed: _gcd's long
    division, with the quotient kept.  _gcd keeps its own copy of the loop,
    as a call per division step there cost the root scan about 5% on a
    2-core host."""
    a, quotient = list(a), []
    inv = pow(b[-1], -1, p)
    db = len(b) - 1
    while len(a) > db:
        q = a.pop() * inv % p
        quotient.append(q)
        if q:
            s = len(a) - db
            for j in range(db):
                a[s + j] = (a[s + j] - q * b[j]) % p
    return tuple(_trim(quotient[::-1])), tuple(_trim(a))


def _power(p: int, f: tuple, e: int, a: tuple | None = None) -> tuple:
    """a^e mod monic f of degree n >= 1, with a = X by default, a reduced mod
    f: the one packed kernel (module docstring, with the slot widths and
    their proof), over F_p for int coefficients and over F_{p^2} for GaussInt
    ones.  Returns the result's coefficients, trimmed.

    A square-and-multiply from the top bit of e on one packed int.  For a = X
    the multiply is a shift of the square, and the leading bits of e whose
    value stays below n give the starting monomial without any product.
    Each step is one product: 0 squares, 1 squares and shifts (a = X), M
    multiplies by a.
    """
    n = len(f) - 1
    wide = type(f[-1]) is not int  # F_{p^2}
    sq = (p - 1) ** 2
    if wide:
        offset = -(-n * sq // p) * p  # the least multiple of p >= n(p - 1)^2
        w = (3 * n * sq + offset).bit_length()
        width = 3 * w
        slots = range(0, n * width, width)
        # X^n mod f and i * (X^n mod f), a coefficient re + im*i packed as re + (im << w)
        tail = sum(map(lshift, [-c.re % p | -c.im % p << w for c in f[:-1]], slots))
        i_tail = sum(map(lshift, [c.im % p | -c.re % p << w for c in f[:-1]], slots))
        rows = [
            (k * width + j, t << (k - n) * width)
            for k in range(2 * n - 1, n - 1, -1)
            for j, t in ((0, tail), (w, i_tail))
        ]
        ones = sum(1 << s for s in range(0, 2 * n * width, width))
        i_squared, offsets = ((1 << w) - 1 << 2 * w) * ones, offset * ones
        reduced = [s + j for s in slots for j in (0, w)]
        product_rows = rows[2:]
    else:
        folded = 2 * n * sq  # L: a slot after one fold from reduced slots
        w = width = (n * folded * folded + n * sq).bit_length()
        reduced = slots = range(0, n * w, w)
        tail = sum(map(lshift, [-c % p for c in f[:-1]], slots))  # X^n mod f
        rows = [(k * w, tail << (k - n) * w) for k in range(2 * n - 1, n - 1, -1)]
        product_rows = rows[1:]  # slot 2n - 1 is filled only by the shift
    mask, low = (1 << w) - 1, (1 << n * width) - 1
    bits = format(e, "b")
    if a is None:
        j = min(len(bits), (n - 1).bit_length())
        if e >> (len(bits) - j) >= n:
            j -= 1
        x, base = 1 << (e >> (len(bits) - j)) * width, None
        steps = bits[j:]
    else:
        x, base = 1, sum(map(lshift, [c.re | c.im << w for c in a] if wide else a, slots))
        steps = bits.replace("1", "0M")
    lazy = False  # the low slots of x are not yet taken mod p
    for step in steps:
        if step == "1":
            x = x * x << width
            folds = rows
        else:
            x *= x if step == "0" else base
            folds = product_rows
        if wide:  # i^2 = -1, and every step taken mod p
            high = x & i_squared
            x += offsets - high - (high >> 2 * w)
            lazy = True
        for s, row in folds:
            x += (x >> s & mask) % p * row
        x &= low
        if lazy:
            x = sum([((x >> s & mask) % p) << s for s in reduced])
        lazy = not lazy
    if wide:
        out = [GaussInt((x >> s & mask) % p, (x >> s + w & mask) % p) for s in slots]
    else:
        out = [(x >> s & mask) % p for s in slots]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _minus_x(p: int, a: tuple) -> tuple:
    """a - X.  A short a is padded with int zeros, which GaussInt
    arithmetic takes as well: the result is only tested or fed to a gcd."""
    out = list(a) + [0] * (2 - len(a))
    out[1] = (out[1] - 1) % p
    return tuple(_trim(out))


def squarefree(f: PolyFq) -> bool:
    """True iff gcd(f, f') is constant."""
    if f.is_zero():
        raise InputError("squarefree test of the zero polynomial")
    p, cs = f.field.p, f.coeffs
    d = _trim([j * c % p for j, c in enumerate(cs)][1:])
    if not d:
        # constant: vacuously squarefree; nonconstant with zero derivative is a p-th power
        return len(cs) == 1
    return len(_gcd(p, cs, d)) == 1


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
    return _power(F.p, f.coeffs, F.size) == _divmod(F.p, (F.zero(), F.one()), f.coeffs)[1]


def has_root(f: PolyFq) -> bool:
    """True iff f has a root in the field: deg gcd(X^q - X, f) >= 1."""
    if f.is_zero():
        raise InputError("has_root of the zero polynomial")
    if f.degree() < 1:
        return False
    p, monic = f.field.p, _monic(f.field.p, f.coeffs)
    return len(_gcd(p, monic, _minus_x(p, _power(p, monic, f.field.size)))) > 1


# root_status values, ordered: a polynomial that splits also has a root.
NO_ROOT, ROOT, SPLITS = 0, 1, 2


def root_status(f: PolyFq) -> int:
    """NO_ROOT, ROOT or SPLITS for monic f of degree >= 1, from one power.

    With f = X^k * g(X^e) and r = Y^((q-1)/e) mod g (_root_status): a double
    root at 0 (k > 1) rules splitting out; otherwise f splits into distinct
    linear factors iff g is constant (f = X) or r = 1, and f has a root iff
    k = 1 or deg gcd(g, r - 1) >= 1.
    The gcd runs only when f has neither a root at 0 nor a split.
    """
    if f.degree() < 1 or not f.is_monic():
        raise InputError("root_status requires a monic nonconstant polynomial")
    F = f.field
    return _root_status(F.p, [(j, c) for j, c in enumerate(f.coeffs) if c], F.degree)


def _root_status(p: int, terms, degree: int = 1) -> int:
    """root_status on the nonzero terms (j, c) of a monic f of degree >= 1
    over F_q, q = p^degree, exponents ascending: the root scan's entry.

    f is deflated first: f = X^k * g(X^e) with g(0) != 0 and e = gcd(d,
    q - 1), where d is the gcd of the exponents of the terms of f / X^k, so
    a term c*X^j is g's coefficient (j - k) / e.  As e divides q - 1,
    X -> X^e maps F_q^* e-to-1 onto the e-th powers, which are the y with
    y^((q-1)/e) = 1, and p does not divide e: a root y of g of multiplicity
    m gives e roots of f of multiplicity m if y is an e-th power, none
    otherwise.  So f / X^k has a root iff g has one with y^((q-1)/e) = 1,
    and splits into distinct linear factors iff Y^((q-1)/e) = 1 (mod g).
    """
    k = terms[0][0]
    if k > 1:
        return ROOT
    q = p**degree
    e = gcd(q - 1, *[j - k for j, _ in terms])
    g = [0 * terms[0][1]] * ((terms[-1][0] - k) // e + 1)  # zeros of the coefficients' type
    for j, c in terms:
        g[(j - k) // e] = c
    if len(g) == 1:
        return SPLITS  # f = X
    r = _power(p, g, (q - 1) // e)
    if r == (g[-1],):  # r = 1, g being monic
        return SPLITS
    if k:
        return ROOT
    if len(r) < 2:
        return NO_ROOT  # r - 1 is a nonzero constant
    return ROOT if len(_gcd(p, g, [(r[0] - 1) % p, *r[1:]])) > 1 else NO_ROOT


def factor_degrees(f: PolyFq) -> tuple:
    """Degrees of the irreducible factors of squarefree monic f, nondecreasing.

    Distinct-degree factorization: the degree-d part of f is gcd(f, X^(q^d) - X).
    That gcd divides f by construction, so a remainder there is an
    InternalInconsistency.
    """
    if f.is_zero() or not f.is_monic():
        raise InputError("factor_degrees requires a monic polynomial")
    if not squarefree(f):
        raise InputError("factor_degrees requires a squarefree polynomial")
    F = f.field
    p, rem = F.p, f.coeffs
    degrees: list[int] = []
    h = _divmod(p, (F.zero(), F.one()), rem)[1]
    d = 0
    while len(rem) > 1:
        d += 1
        if len(rem) - 1 < 2 * d:
            # remainder is irreducible
            degrees.append(len(rem) - 1)
            break
        h = _power(p, rem, F.size, h)
        g = _monic(p, _gcd(p, rem, _minus_x(p, h)))
        if len(g) > 1:
            degrees.extend([d] * ((len(g) - 1) // d))
            rem, inexact = _divmod(p, rem, g)  # monic, as rem and g are
            if inexact:
                raise InternalInconsistency(f"inexact polynomial division by the degree-{d} part {g}")
            h = _divmod(p, h, rem)[1]
    degrees.sort()
    return tuple(degrees)
