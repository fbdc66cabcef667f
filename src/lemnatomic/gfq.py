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
division, and the same deflation and root tests serve both fields.  Only
powers modulo f part them, by the coefficients' type: over F_p a
square-and-multiply on Kronecker-packed ints (_PackedModulus), whose slots
are wide enough that the low ones are taken mod p only after every other
squaring; over F_{p^2} a square-and-multiply on (re, im) int lists, each
product one zipoly.kronecker_mul reduced mod p and f.  The root scan passes p, the
nonzero terms (j, c) of h mod pi and the field degree straight to
_root_status, the entry under root_status, so a prime costs it no
GaussPrime, ResidueField or PolyFq, and no work on the zero coefficients.

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

from .errors import InputError, InternalInconsistency
from .gaussint import I, ONE, ZERO, GaussInt, GaussPrime, _make_prime, as_gauss, is_prime
from .zipoly import PolyZi, kronecker_mul

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
    return tuple(c * inv % p for c in a)


def _gcd(p: int, a: tuple, b: tuple) -> tuple:
    """Monic gcd by Euclid; a and b trimmed, reduced mod p, not both zero.

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
        a, b = b, _trim(a)
    return _monic(p, a)


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
        return tuple(_trim([(x >> s & mask) % p for s in slots]))


def _power(p: int, f: tuple, e: int, a: tuple | None = None) -> tuple:
    """a^e mod monic f of degree n >= 1, with a = X by default, a reduced mod f.

    Int coefficients run on _PackedModulus.  GaussInt coefficients run a
    square-and-multiply from the top bit of e on (re, im) int lists of n
    slots: each product is one zipoly.kronecker_mul, and a multiply by X a
    shift, reduced mod f by a long division, which needs no inverse as f is
    monic.  A slot is taken mod p
    when it is read as a quotient coefficient or kept as a result, not at
    each update.
    """
    if type(f[-1]) is int:
        return _PackedModulus(p, f).pow_mod((0, 1) if a is None else a, e)
    n = len(f) - 1
    f_re, f_im = [c.re for c in f[:-1]], [c.im for c in f[:-1]]

    def mod_f(re: list, im: list) -> tuple:
        for k in range(len(re) - 1, n - 1, -1):
            q_re, q_im = re[k] % p, im[k] % p  # slots s .. k less q * X^s * f
            if q_re or q_im:
                s = k - n
                for j in range(n):
                    re[s + j] -= q_re * f_re[j] - q_im * f_im[j]
                    im[s + j] -= q_re * f_im[j] + q_im * f_re[j]
        pad = [0] * (n - len(re))
        return [x % p for x in re[:n]] + pad, [y % p for y in im[:n]] + pad

    base = mod_f([0, 1], [0, 0]) if a is None else mod_f([c.re for c in a], [c.im for c in a])
    x = base if e else mod_f([1], [0])
    for bit in format(e, "b")[1:]:
        x = mod_f(*kronecker_mul(x, x))
        if bit == "1":  # a multiply by X is a shift
            x = mod_f([0] + x[0], [0] + x[1]) if a is None else mod_f(*kronecker_mul(x, base))
    return tuple(_trim([GaussInt(re, im) for re, im in zip(*x)]))


def _minus_x(p: int, a: tuple, k: int = 1) -> tuple:
    """a - X^k.  A short a is padded with int zeros, which GaussInt
    arithmetic takes as well: the result is only tested or fed to a gcd."""
    out = list(a) + [0] * (k + 1 - len(a))
    out[k] = (out[k] - 1) % p
    return tuple(_trim(out))


def _deflate(q: int, terms) -> tuple:
    """(k, g, e) with f = X^k * g(X^e) and g(0) != 0, for nonzero f over F_q
    given by its nonzero terms (j, c), exponents j ascending.

    e = gcd(d, q - 1), where d is the gcd of the exponents of the terms of
    f / X^k, so a term c*X^j is g's coefficient (j - k) / e.  As e divides
    q - 1, X -> X^e maps F_q^* e-to-1 onto the e-th powers, which are the y
    with y^((q-1)/e) = 1, and p does not divide e: a root y of g of
    multiplicity m gives e roots of f of multiplicity m if y is an e-th
    power, none otherwise.  So f / X^k has a root iff g has one with
    y^((q-1)/e) = 1, and splits into distinct linear factors iff
    Y^((q-1)/e) = 1 (mod g).
    """
    k = terms[0][0]
    e = gcd(q - 1, *[j - k for j, _ in terms])
    g = [0 * terms[0][1]] * ((terms[-1][0] - k) // e + 1)  # zeros of the coefficients' type
    for j, c in terms:
        g[(j - k) // e] = c
    return k, tuple(g), e


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

    With f = X^k * g(X^e) (_deflate) and r = Y^((q-1)/e) mod g: a double root
    at 0 (k > 1) rules splitting out; otherwise f splits into distinct linear
    factors iff g is constant (f = X) or r = 1, and f has a root iff k = 1 or
    deg gcd(g, r - 1) >= 1.
    The gcd runs only when f has neither a root at 0 nor a split.
    """
    if f.degree() < 1 or not f.is_monic():
        raise InputError("root_status requires a monic nonconstant polynomial")
    F = f.field
    return _root_status(F.p, [(j, c) for j, c in enumerate(f.coeffs) if c], F.degree)


def _root_status(p: int, terms, degree: int = 1) -> int:
    """root_status on the nonzero terms (j, c) of a monic f of degree >= 1
    over F_q, q = p^degree, exponents ascending: the root scan's entry."""
    q = p**degree
    k, g, e = _deflate(q, terms)
    if k > 1:
        return ROOT
    if len(g) == 1:
        return SPLITS  # f = X
    r = _minus_x(p, _power(p, g, (q - 1) // e), 0)  # Y^((q-1)/e) - 1 mod g
    if not r:
        return SPLITS
    return ROOT if k or len(_gcd(p, g, r)) > 1 else NO_ROOT


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
        g = _gcd(p, rem, _minus_x(p, h))
        if len(g) > 1:
            degrees.extend([d] * ((len(g) - 1) // d))
            rem, inexact = _divmod(p, rem, g)  # monic, as rem and g are
            if inexact:
                raise InternalInconsistency(f"inexact polynomial division by the degree-{d} part {g}")
            h = _divmod(p, h, rem)[1]
    degrees.sort()
    return tuple(degrees)
