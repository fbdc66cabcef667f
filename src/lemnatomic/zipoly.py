"""Exact polynomials over Z[i].

Dense ascending-coefficient polynomials with GaussInt entries: ring
arithmetic, formal derivative, evaluation, exact division by a monic
divisor, the resultant (by CRT over its images mod primes p = 1 mod 4) and
the discriminant, the JSON form {"coeffs": ["a+bi", ...]}, and to_json, the
one encoder that writes every report, cache record and CLI payload on top
of it.

Products go through one Kronecker product on (re, im) int lists,
kronecker_mul, which PolyZi.__mul__ wraps; the slot packing, the complex
product of packed values and the slot reversal it is built from also serve
the exact route's certificate, which compares packed values directly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from math import gcd
from typing import Iterable, Iterator, Union

from .errors import InputError, NotDivisible, ParseError
from .gaussint import GaussInt, GaussIntLike, GaussPrime, ZERO, ONE, as_gauss, format_gauss, parse_gauss
from .gaussint import _is_rational_prime, _sqrt_minus_one

# resultant's CRT primes are the primes p = 1 mod 4 taken downward from here
_CRT_TOP = 1 << 62


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


def resultant(f: PolyZi, g: PolyZi) -> GaussInt:
    """Res(f, g) for nonzero f and g over Z[i]: Collins' modular resultant
    (J. ACM 18, 1971), exact.

    For a prime p = 1 mod 4 with s^2 = -1 mod p, i -> s and i -> -s are the
    two maps Z[i] -> F_p.  Where neither leading coefficient vanishes under
    either map, each image of Res(f, g) is the resultant of the images of f
    and g, r+ and r-, which Euclid over F_p finds; then Re Res = (r+ + r-)/2
    and Im Res = (r+ - r-)/(2s) mod p.  Primes are taken downward from 2^62,
    where _is_rational_prime is exact (_crt_prime finds each once per
    process), and combined by CRT until their product M has
    M^2 > 4 (sum N(f_k))^deg g (sum N(g_k))^deg f: that is four times
    Hadamard's bound on |Res|^2, so |Re|, |Im| < M/2 and the symmetric
    residues are the parts themselves.
    """
    n, m = f.degree(), g.degree()
    if n < 0 or m < 0:
        raise InputError("resultant of the zero polynomial is undefined")
    bound = 4 * sum(c.norm() for c in f.coeffs) ** m * sum(c.norm() for c in g.coeffs) ** n
    re = im = 0
    modulus = 1
    k = 0
    while modulus * modulus <= bound:
        p, s = _crt_prime(k)
        k += 1
        images = [[[(c.re + t * c.im) % p for c in h.coeffs] for h in (f, g)] for t in (s, p - s)]
        if not all(a[-1] and b[-1] for a, b in images):
            continue
        r_plus, r_minus = (_resultant_mod(a, b, p) for a, b in images)
        half = (p + 1) // 2  # 1/2 mod p, and 1/(2s) = -s/2
        inv = pow(modulus, -1, p)
        re += modulus * (((r_plus + r_minus) * half - re) * inv % p)
        im += modulus * (((r_minus - r_plus) * half * s - im) * inv % p)
        modulus *= p
    return GaussInt(re - modulus if 2 * re > modulus else re, im - modulus if 2 * im > modulus else im)


@lru_cache(maxsize=1024)
def _crt_prime(k: int) -> tuple:
    """(p, s) for the k-th prime p = 1 mod 4 below 2^62, downward, with
    s^2 = -1 mod p: resultant's CRT primes, found once per process.

    resultant asks for k = 0, 1, 2, ... in turn, so the search for the k-th
    starts below the (k-1)-th, which the memo holds.
    """
    p = _crt_prime(k - 1)[0] - 4 if k else _CRT_TOP - 3
    while not _is_rational_prime(p):
        p -= 4
    return p, _sqrt_minus_one(p)


def _resultant_mod(a: list[int], b: list[int], p: int) -> int:
    """Res(a, b) mod p for ascending coefficient lists over F_p with nonzero
    leading coefficients, by Euclid: with a = q b + r, deg a = n, deg b = m
    and deg r = k, Res(a, b) = (-1)^(nm) lc(b)^(n - k) Res(b, r), and
    Res(a, c) = c^n for a constant c.  Res(a, b) = 0 once r = 0."""
    res = 1
    while len(b) > 1:
        n, m = len(a) - 1, len(b) - 1
        inv = pow(b[-1], -1, p)
        r = a[:]
        while len(r) > m:
            q = r.pop() * inv % p
            if q:
                k = len(r) - m
                r[k:] = [(x - q * y) % p for x, y in zip(r[k:], b)]
        while r and not r[-1]:
            r.pop()
        if not r:
            return 0
        res = res * pow(b[-1], n - len(r) + 1, p) * (-1) ** (n * m) % p
        a, b = b, r
    return res * pow(b[0], len(a) - 1, p) % p


def discriminant(f: PolyZi) -> GaussInt:
    """disc(f) = (-1)^(n(n-1)/2) * Res(f, f') for monic f of degree n >= 1.

    f is deflated first: f = X^k * G(X^d) with G(0) != 0 and d the gcd of
    the exponents of f / X^k, and the one resultant runs on G.
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
    degree, and each Euclid over F_p a sixteenth of the steps.
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

