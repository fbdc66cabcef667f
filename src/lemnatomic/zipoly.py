"""Exact polynomials over Z[i].

Dense ascending-coefficient polynomials with GaussInt entries: ring
arithmetic, formal derivative, evaluation, exact division by a monic
divisor, a fraction-free resultant/discriminant, the JSON form
{"coeffs": ["a+bi", ...]}, and to_json, the one encoder that writes every
report, cache record and CLI payload on top of it.

Products go through one Kronecker product on (re, im) int lists,
kronecker_mul, which PolyZi.__mul__ wraps; the slot packing, the complex
product of packed values and the slot reversal it is built from also serve
the exact route's certificate, which compares packed values directly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import gcd
from typing import Iterable, Iterator, Union

from .errors import InputError, NotDivisible, ParseError
from .gaussint import GaussInt, GaussIntLike, GaussPrime, ZERO, ONE, as_gauss, format_gauss, parse_gauss


def _trim(coeffs: list[GaussInt]) -> tuple[GaussInt, ...]:
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True, slots=True)
class PolyZi:
    """Polynomial over Z[i]; coeffs ascending, leading nonzero, zero = ()."""

    coeffs: tuple[GaussInt, ...]

    @staticmethod
    def make(coeffs: Iterable[GaussIntLike]) -> "PolyZi":
        return PolyZi(_trim([as_gauss(c) for c in coeffs]))

    def degree(self) -> int:
        """Degree; the zero polynomial reports -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == ONE

    def leading(self) -> GaussInt:
        if not self.coeffs:
            raise InputError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, k: int) -> GaussInt:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else ZERO

    def __add__(self, other: "PolyZi") -> "PolyZi":
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyZi(_trim([self[k] + other[k] for k in range(n)]))

    def __sub__(self, other: "PolyZi") -> "PolyZi":
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyZi(_trim([self[k] - other[k] for k in range(n)]))

    def __neg__(self) -> "PolyZi":
        return PolyZi(tuple(-c for c in self.coeffs))

    def __mul__(self, other: Union["PolyZi", GaussInt, int]) -> "PolyZi":
        if not isinstance(other, PolyZi):
            scalar = as_gauss(other)
            return PolyZi(_trim([c * scalar for c in self.coeffs]))
        if self.is_zero() or other.is_zero():
            return PolyZi(())
        a = [c.re for c in self.coeffs], [c.im for c in self.coeffs]
        b = a
        if other.coeffs is not self.coeffs:
            b = [c.re for c in other.coeffs], [c.im for c in other.coeffs]
        return PolyZi(tuple(map(GaussInt, *kronecker_mul(a, b))))

    __rmul__ = __mul__

    def derivative(self) -> "PolyZi":
        return PolyZi(_trim([self.coeffs[k] * k for k in range(1, len(self.coeffs))]))

    def evaluate(self, z: GaussIntLike) -> GaussInt:
        z = as_gauss(z)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def __str__(self) -> str:
        out = ""
        for k in range(len(self.coeffs) - 1, -1, -1):
            lit = format_gauss(self.coeffs[k])
            if lit == "0":
                continue
            if "i" in lit or "+" in lit[1:] or "-" in lit[1:]:
                lit = f"({lit})"
            power = "" if k == 0 else "X" if k == 1 else f"X^{k}"
            if power and lit in ("1", "-1"):
                lit = lit[:-1]  # a unit coefficient shows as its sign
            term = lit + power
            if not out:
                out = term
            elif term[0] == "-":
                out += " - " + term[1:]
            else:
                out += " + " + term
        return out or "0"


def kronecker_mul(a: tuple, b: tuple) -> tuple:
    """(re, im) int lists of the product of the polynomials whose ascending
    coefficients have the nonempty (re, im) int lists a and b.

    Kronecker substitution: a polynomial becomes its value at 2^(8 nbytes),
    so one big-integer product gives every coefficient at once.  Each part
    of a product coefficient is a sum of 2 * min(len) terms below
    max|a| * max|b|; one more bit holds its sign.  When b is a, the operands
    pack once and the products are big-int squares (see complex_mul).  The
    result keeps every slot, so a leading zero is not trimmed.
    """
    bits = _max_abs(a).bit_length() + _max_abs(b).bit_length()
    nbytes = (bits + min(len(a[0]), len(b[0])).bit_length() + 2 + 7) // 8
    x = pack_slots(a[0], nbytes), pack_slots(a[1], nbytes)
    y = x if b is a else (pack_slots(b[0], nbytes), pack_slots(b[1], nbytes))
    re, im = complex_mul(x, y)
    n = len(a[0]) + len(b[0]) - 1
    return list(_unpack(re, n, nbytes)), list(_unpack(im, n, nbytes))


def complex_mul(x: tuple, y: tuple) -> tuple:
    """(xr + xi i)(yr + yi i) as an (re, im) int pair, by three products:
    xr yr - xi yi and (xr + xi)(yr + yi) - xr yr - xi yi.  When y is x all
    three are squares, which CPython computes faster than general products.
    A real factor needs two products, and a real square one: the maps of a
    rational beta have real coefficients (sl has a real Taylor series)."""
    if not x[1]:
        return x[0] * y[0], x[0] * y[1]
    if not y[1]:
        return x[0] * y[0], x[1] * y[0]
    rr = x[0] * y[0]
    ii = x[1] * y[1]
    sx = x[0] + x[1]
    sy = sx if y is x else y[0] + y[1]
    return rr - ii, sx * sy - rr - ii


def _max_abs(a: tuple) -> int:
    """The largest |part| of the (re, im) int lists a."""
    return max(max(map(abs, a[0])), max(map(abs, a[1])))


def pack_slots(values: list[int], nbytes: int) -> int:
    """sum(v_k * 2^(8 nbytes k)) for signed v_k with |v_k| < 2^(8 nbytes - 1)."""
    half = 1 << (8 * nbytes - 1)
    biased = b"".join((v + half).to_bytes(nbytes, "little") for v in values)
    return int.from_bytes(biased, "little") - _half_slots(len(values), nbytes)


def _unpack(packed: int, count: int, nbytes: int) -> Iterator[int]:
    """The signed slots v_0 .. v_(count-1) of a value built as by pack_slots."""
    half = 1 << (8 * nbytes - 1)
    view = memoryview((packed + _half_slots(count, nbytes)).to_bytes(count * nbytes, "little"))
    return (int.from_bytes(view[k : k + nbytes], "little") - half for k in range(0, count * nbytes, nbytes))


def reverse_slots(packed: int, count: int, nbytes: int) -> int:
    """The value built as by pack_slots from the slots v_(count-1) .. v_0 of
    packed, that is the reversed polynomial of degree count - 1 at
    2^(8 nbytes), read without unpacking a slot: the bias 2^(8 nbytes - 1)
    makes every slot a nonnegative byte string, and the same bias in every
    slot is removed after the chunks are reversed."""
    half = _half_slots(count, nbytes)
    raw = (packed + half).to_bytes(count * nbytes, "little")
    chunks = [raw[k : k + nbytes] for k in range(0, count * nbytes, nbytes)]
    chunks.reverse()
    return int.from_bytes(b"".join(chunks), "little") - half


def _half_slots(count: int, nbytes: int) -> int:
    """2^(8 nbytes - 1) in each of count slots of nbytes bytes."""
    return int.from_bytes((bytes(nbytes - 1) + b"\x80") * count, "little")


def poly(coeffs: Iterable[GaussIntLike]) -> PolyZi:
    """Build a PolyZi from ascending coefficients (ints allowed)."""
    return PolyZi.make(coeffs)


def exact_divide(f: PolyZi, g: PolyZi) -> PolyZi:
    """Quotient f/g for a monic divisor g dividing f exactly.

    Long division on the re/im int lists: g is monic, so each quotient
    coefficient is the leading coefficient of the remainder so far.  Raises
    NotDivisible (carrying the remainder) when the division leaves a nonzero
    remainder.
    """
    if not g.is_monic():
        raise InputError("exact_divide requires a monic divisor")
    rem_re = [c.re for c in f.coeffs]
    rem_im = [c.im for c in f.coeffs]
    g_re = [c.re for c in g.coeffs[:-1]]
    g_im = [c.im for c in g.coeffs[:-1]]
    quotient = [ZERO] * max(len(rem_re) - g.degree(), 0)
    for k in range(len(quotient) - 1, -1, -1):
        qr, qi = rem_re.pop(), rem_im.pop()
        if qr or qi:
            quotient[k] = GaussInt(qr, qi)
            rem_re[k:] = [x - qr * yr + qi * yi for x, yr, yi in zip(rem_re[k:], g_re, g_im)]
            rem_im[k:] = [x - qr * yi - qi * yr for x, yr, yi in zip(rem_im[k:], g_re, g_im)]
    remainder = PolyZi(_trim(list(map(GaussInt, rem_re, rem_im))))
    if not remainder.is_zero():
        raise NotDivisible(f"{g} does not divide {f}", remainder=remainder)
    return PolyZi(tuple(quotient))


def _bareiss_det(matrix: list[list[GaussInt]]) -> GaussInt:
    """Fraction-free determinant (Bareiss elimination with row pivoting).

    Runs on parallel re/im int rows.  Every division by the previous pivot is
    exact (Sylvester's identity); it is done inline as a product with the
    conjugate over the norm, and a nonzero remainder raises InputError.
    """
    n = len(matrix)
    if n == 0:
        return ONE
    re = [[c.re for c in row] for row in matrix]
    im = [[c.im for c in row] for row in matrix]
    sign = 1
    ur, ui, norm = 1, 0, 1  # previous pivot and its norm
    for k in range(n - 1):
        if not (re[k][k] or im[k][k]):
            for r in range(k + 1, n):
                if re[r][k] or im[r][k]:
                    re[k], re[r] = re[r], re[k]
                    im[k], im[r] = im[r], im[k]
                    sign = -sign
                    break
            else:
                return ZERO
        pr, pi = re[k][k], im[k][k]
        top_re, top_im = re[k][k + 1 :], im[k][k + 1 :]
        for i in range(k + 1, n):
            ar, ai = re[i][k], im[i][k]
            row_re, row_im = [], []
            for xr, xi, yr, yi in zip(re[i][k + 1 :], im[i][k + 1 :], top_re, top_im):
                # t = x * pivot - a * y, then t / prev
                tr = xr * pr - xi * pi - ar * yr + ai * yi
                ti = xr * pi + xi * pr - ar * yi - ai * yr
                qr, rr = divmod(tr * ur + ti * ui, norm)
                qi, ri = divmod(ti * ur - tr * ui, norm)
                if rr or ri:
                    raise InputError(f"{GaussInt(tr, ti)} is not divisible by {GaussInt(ur, ui)} in Z[i]")
                row_re.append(qr)
                row_im.append(qi)
            re[i][k + 1 :], im[i][k + 1 :] = row_re, row_im
        ur, ui, norm = pr, pi, pr * pr + pi * pi
    det = GaussInt(re[n - 1][n - 1], im[n - 1][n - 1])
    return det if sign == 1 else -det


def resultant(f: PolyZi, g: PolyZi) -> GaussInt:
    """Resultant of f and g via the Sylvester determinant, exact over Z[i]."""
    n, m = f.degree(), g.degree()
    if n < 0 or m < 0:
        raise InputError("resultant of the zero polynomial is undefined")
    if n == 0:
        return f.coeffs[0] ** m
    if m == 0:
        return g.coeffs[0] ** n
    size = n + m
    rows: list[list[GaussInt]] = []
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    for k in range(m):
        rows.append([ZERO] * k + fc + [ZERO] * (size - k - n - 1))
    for k in range(n):
        rows.append([ZERO] * k + gc + [ZERO] * (size - k - m - 1))
    return _bareiss_det(rows)


def discriminant(f: PolyZi) -> GaussInt:
    """disc(f) = (-1)^(n(n-1)/2) * Res(f, f') for monic f of degree n >= 1.

    f is deflated first: f = X^k * G(X^d) with G(0) != 0 and d the gcd of
    the exponents of f / X^k, and the one Sylvester resultant runs on G.
    For monic F, Res(F, F') is the product of F'(x) over the roots x of F.

      k >= 2:  X^2 divides f, so disc(f) = 0.
      k = 1:   disc(X F) = disc(X) disc(F) Res(X, F)^2 = disc(F) F(0)^2,
               with disc(X) = 1.
      k = 0:   f'(x) = d x^(d-1) G'(x^d), the roots x of f multiply to
               (-1)^n G(0), and above each root y of G lie d roots x with
               x^d = y (G(0) != 0), so Res(f, f') = d^n ((-1)^n G(0))^(d-1)
               Res(G, G')^d, and disc(f) is that times (-1)^(n(n-1)/2).
               n = d deg G, so n (d - 1) is even and (-1)^(n(d-1)) = 1.

    d = 1 is the plain Res(f, f').  Every lemnatomic polynomial lies in
    Z[i][X^4] with a nonzero constant term, so its G has a quarter of the
    degree and the Sylvester matrix a sixteenth of the entries.
    """
    if not f.is_monic():
        raise InputError("discriminant requires a monic polynomial")
    n = f.degree()
    if n < 1:
        raise InputError("discriminant requires degree >= 1")
    exponents = [j for j, c in enumerate(f.coeffs) if not c.is_zero()]
    k = exponents[0]
    if k >= 2:
        return ZERO
    if k == 1:
        g = PolyZi(f.coeffs[1:])
        return g[0] * g[0] * discriminant(g) if n > 1 else ONE
    d = gcd(*exponents)
    g = PolyZi(f.coeffs[::d])
    disc = g[0] ** (d - 1) * resultant(g, g.derivative()) ** d * d**n
    return disc if (n * (n - 1) // 2) % 2 == 0 else -disc


def to_json_dict(f: PolyZi) -> dict:
    """JSON form: ascending Gaussian literals."""
    return {"coeffs": [format_gauss(c) for c in f.coeffs]}


def to_json(value):
    """The JSON-ready form of value, the one rule for every report, record
    and CLI payload: str, int, float, bool and None as they are, a Gaussian
    integer or prime as its literal, a polynomial as to_json_dict, a tuple or
    list as a list, a dict value by value, and any other dataclass as the
    dict of its fields, so each JSON key is a field name.

    Cache files are written from this, so renaming a record field changes
    them on disk; the cache and CLI tests pin their bytes, and a deliberate
    format change must bump cache.SCHEMA_VERSION.
    """
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, GaussInt):
        return format_gauss(value)
    if isinstance(value, GaussPrime):
        return format_gauss(value.value)
    if isinstance(value, PolyZi):
        return to_json_dict(value)
    if isinstance(value, (tuple, list)):
        return [to_json(v) for v in value]
    if isinstance(value, dict):
        return {k: to_json(v) for k, v in value.items()}
    return {f.name: to_json(getattr(value, f.name)) for f in fields(value)}


def from_json_dict(data: dict) -> PolyZi:
    if not isinstance(data, dict) or "coeffs" not in data:
        raise ParseError('polynomial JSON must be an object with a "coeffs" list')
    coeffs = data["coeffs"]
    if not isinstance(coeffs, list):
        raise ParseError('"coeffs" must be a list of Gaussian literals')
    return PolyZi.make([parse_gauss(c) for c in coeffs])

