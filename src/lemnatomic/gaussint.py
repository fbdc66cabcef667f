"""Exact arithmetic in the ring Z[i] of Gaussian integers.

Provides the GaussInt value type (ring operations, Euclidean division with a
deterministic rounding rule, gcd with a canonical associate, and reduction
and inversion modulo a rational integer p, which make it the element of
Z[i]/(p) = F_{p^2} at an inert p), primality and factorization driven by
norm factorization over Z, primary normalization (the unique associate
congruent to 1 mod (1+i)^3), prime enumeration by norm, and the `a+bi`
literal grammar used across the CLI and JSON layers.

The prime walk behind the enumeration (_odd_prime_walk) stores, next to
each split prime, the image of i in its residue field F_p, which it reads
off the lattice point p = x^2 + y^2 with one modular inverse per rational
prime, so a scan over the walk reduces mod a split prime without an inverse
of its own.

All values are immutable by convention, and all operations are pure, so
everything here is safe for concurrent use.  GaussInt and GaussPrime are
slotted dataclasses that are not frozen: a frozen dataclass's __init__
stores each field through object.__setattr__, which more than doubles the
cost of building one, and the scans build one or more per prime.  Their
hash is still the hash of the field tuple.  No module of the package
assigns or deletes a field of either; an AST test in tests/test_gaussint.py
guards that.
"""

from __future__ import annotations

import re as _re
from array import array
from dataclasses import dataclass
from functools import lru_cache
from math import gcd as _int_gcd, isqrt

from .errors import InputError, NotOdd, ParseError

_TRIAL_BOUND = 1_000_000  # trial division covers every norm <= _TRIAL_BOUND**2


@dataclass(slots=True, unsafe_hash=True)
class GaussInt:
    """A Gaussian integer re + im*i with arbitrary-size components."""

    re: int
    im: int

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: GaussIntLike) -> "GaussInt":
        other = as_gauss(other)
        return GaussInt(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: GaussIntLike) -> "GaussInt":
        other = as_gauss(other)
        return GaussInt(self.re - other.re, self.im - other.im)

    def __rsub__(self, other: GaussIntLike) -> "GaussInt":
        return as_gauss(other) - self

    def __mul__(self, other: GaussIntLike) -> "GaussInt":
        other = as_gauss(other)
        return GaussInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "GaussInt":
        return GaussInt(-self.re, -self.im)

    def __pow__(self, n: int, mod: int | None = None) -> "GaussInt":
        """z^n for n >= 0.  pow(z, -1, m) is the inverse of z modulo the
        rational integer m, conj(z) * N(z)^-1 with both parts in [0, m); a
        ValueError, as for ints, when N(z) is not invertible mod m."""
        if mod is not None:
            if n != -1:
                raise InputError("pow(z, n, m) is defined for n = -1 only")
            return self.conjugate() * pow(self.norm(), -1, mod) % mod
        if n < 0:
            raise InputError("negative powers leave Z[i]")
        result, base = ONE, self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __mod__(self, m: int) -> "GaussInt":
        """Both parts reduced mod the rational integer m."""
        return GaussInt(self.re % m, self.im % m)

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def conjugate(self) -> "GaussInt":
        return GaussInt(self.re, -self.im)

    def norm(self) -> int:
        """N(z) = re^2 + im^2; multiplicative and zero only at zero."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_unit(self) -> bool:
        return self.norm() == 1

    def is_odd(self) -> bool:
        """True when 1+i does not divide z, i.e. re+im is odd."""
        return (self.re + self.im) % 2 == 1

    def __str__(self) -> str:
        return format_gauss(self)

    def __repr__(self) -> str:
        return f"GaussInt({self.re}, {self.im})"


# A PEP 604 union, not typing.Union: typing caches its unions process-wide,
# which would keep this module alive across a re-import.
GaussIntLike = GaussInt | int

ZERO = GaussInt(0, 0)
ONE = GaussInt(1, 0)
I = GaussInt(0, 1)
UNITS = (ONE, GaussInt(-1, 0), I, GaussInt(0, -1))
ONE_PLUS_I = GaussInt(1, 1)


def as_gauss(value: GaussIntLike) -> GaussInt:
    """Coerce an int (or GaussInt) to GaussInt."""
    if isinstance(value, GaussInt):
        return value
    if isinstance(value, int):
        return GaussInt(value, 0)
    raise InputError(f"cannot interpret {value!r} as a Gaussian integer")


def _round_half_down(x: int, n: int) -> int:
    """Round x/n to the nearest integer, ties toward -infinity. n must be > 0."""
    return -((n - 2 * x) // (2 * n))


def gauss_divmod(a: GaussIntLike, d: GaussIntLike) -> tuple[GaussInt, GaussInt]:
    """Euclidean division a = q*d + r with norm(r) <= norm(d)/2.

    q is obtained by rounding each coordinate of a/d to the nearest integer,
    ties broken toward -infinity per coordinate, which makes the result
    deterministic.
    """
    a, d = as_gauss(a), as_gauss(d)
    n = d.norm()
    if n == 0:
        raise InputError("division by zero in Z[i]")
    t = a * d.conjugate()
    q = GaussInt(_round_half_down(t.re, n), _round_half_down(t.im, n))
    return q, a - q * d


def divides(d: GaussIntLike, a: GaussIntLike) -> bool:
    """True when d divides a exactly in Z[i]."""
    d = as_gauss(d)
    if d.is_zero():
        return as_gauss(a).is_zero()
    return gauss_divmod(a, d)[1].is_zero()


def exact_div(a: GaussIntLike, d: GaussIntLike) -> GaussInt:
    """Quotient a/d, raising InputError if the division is not exact."""
    q, r = gauss_divmod(a, d)
    if not r.is_zero():
        raise InputError(f"{a} is not divisible by {d} in Z[i]")
    return q


def _unit_to_first_quadrant(z: GaussInt) -> GaussInt:
    """The unit u with u*z in the first quadrant, re > 0 and im >= 0 (z != 0)."""
    unit = ONE
    while not ((w := z * unit).re > 0 and w.im >= 0):
        unit = unit * I
    return unit


def canonical_associate(z: GaussIntLike) -> GaussInt:
    """The first-quadrant associate: re > 0 and im >= 0 (zero maps to zero)."""
    z = as_gauss(z)
    return z if z.is_zero() else z * _unit_to_first_quadrant(z)


def gauss_gcd(a: GaussIntLike, b: GaussIntLike) -> GaussInt:
    """First-quadrant canonical greatest common divisor of a and b."""
    a, b = as_gauss(a), as_gauss(b)
    if a.is_zero() and b.is_zero():
        raise InputError("gcd(0, 0) is undefined")
    while not b.is_zero():
        # norms strictly descend, so the loop terminates
        a, b = b, gauss_divmod(a, b)[1]
    return canonical_associate(a)


def primary_normalize(z: GaussIntLike) -> tuple[GaussInt, GaussInt]:
    """Return (u, p) with p = u*z the unique associate with p = 1 mod (1+i)^3,
    read off _primary_parts.

    Requires z odd (not divisible by 1+i).
    """
    z = as_gauss(z)
    if z.is_zero() or not z.is_odd():
        raise NotOdd(f"{z} has no primary associate (it is divisible by 1+i)")
    p = GaussInt(*_primary_parts(z.re, z.im))
    return next(u for u in UNITS if u * z == p), p


def _check_beta(beta) -> GaussInt:
    """The primary associate of beta, which must be an odd non-unit."""
    beta = as_gauss(beta)
    if beta.is_zero() or beta.is_unit():
        raise InputError("beta must be a non-unit")
    if not beta.is_odd():
        raise InputError("beta must be odd (coprime to 1+i)")
    return primary_normalize(beta)[1]


def is_primary(z: GaussIntLike) -> bool:
    """True when z is odd and congruent to 1 mod (1+i)^3."""
    z = as_gauss(z)
    return z.is_odd() and _primary_parts(z.re, z.im) == (z.re, z.im)


# -- rational integer helpers ----------------------------------------------


def _is_rational_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n (deterministic increment sweep)."""
    for c in range(1, 1000):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = _int_gcd(abs(x - y), n)
        if d != n:
            return d
    raise InputError(f"failed to factor {n}; norm beyond supported scale")


def _factor_int(n: int) -> dict[int, int]:
    """Factor a positive integer; trial division first, rho fallback."""
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    # wheel over residues coprime to 30
    increments = (4, 2, 4, 2, 4, 6, 2, 6)
    idx = 0
    while f <= _TRIAL_BOUND and f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += increments[idx]
        idx = (idx + 1) % 8
    if n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if _is_rational_prime(m):
                out[m] = out.get(m, 0) + 1
            else:
                d = _pollard_rho(m)
                stack.extend((d, m // d))
    return out


def _sqrt_minus_one(p: int) -> int:
    """A square root of -1 mod p for a prime p = 1 mod 4."""
    for c in range(2, p):
        if pow(c, (p - 1) // 2, p) == p - 1:  # c is a nonresidue
            return pow(c, (p - 1) // 4, p)
    raise AssertionError("unreachable: nonresidues exist for every odd prime")


def _split_prime_above(p: int) -> GaussInt:
    """The Gaussian prime above a rational prime p = 1 mod 4 that divides
    s + i, as its first-quadrant associate, for s = _sqrt_minus_one(p).

    Cornacchia: Euclid on (p, s), stopped at the first remainder a < sqrt(p),
    gives p = a^2 + b^2.  a + bi divides s + i iff a = s*b (mod p); otherwise
    its conjugate does, whose first-quadrant associate is b + ai.
    """
    s = _sqrt_minus_one(p)
    x, a, root = p, s, isqrt(p)
    while a > root:
        x, a = a, x % a
    b = isqrt(p - a * a)
    return GaussInt(a, b) if (a - s * b) % p == 0 else GaussInt(b, a)


def _primary_parts(x: int, y: int) -> tuple[int, int]:
    """re, im of the primary associate of an odd x + yi: re odd, im even and
    re + im = 1 (mod 4)."""
    if y % 2:
        x, y = -y, x
    return (x, y) if (x + y) % 4 == 1 else (-x, -y)


# -- Gaussian primality and factorization -----------------------------------


@dataclass(slots=True, unsafe_hash=True)
class GaussPrime:
    """A Gaussian prime: primary-normalized value (1+i for the ramified one),
    its norm, and its splitting kind over the rational prime below it."""

    value: GaussInt
    norm: int
    kind: str  # "split", "inert", or "ramified"

    def __str__(self) -> str:
        return format_gauss(self.value)


def _make_prime(value: GaussInt) -> GaussPrime:
    n = value.norm()
    if n == 2:
        return GaussPrime(ONE_PLUS_I, 2, "ramified")
    value = primary_normalize(value)[1]
    if _is_rational_prime(n):
        return GaussPrime(value, n, "split")
    return GaussPrime(value, n, "inert")


def is_prime(z: GaussIntLike) -> bool:
    """True when z generates a prime ideal of Z[i]."""
    z = as_gauss(z)
    n = z.norm()
    if n == 0:
        raise InputError("0 is not classified by primality")
    if n == 1:
        return False
    if n == 2 or _is_rational_prime(n):
        return True
    # remaining prime case: associate of a rational prime p = 3 mod 4
    if z.re == 0 or z.im == 0:
        p = abs(z.re) + abs(z.im)
        return p % 4 == 3 and _is_rational_prime(p)
    return False


def factor(z: GaussIntLike) -> tuple[GaussInt, list[tuple[GaussPrime, int]]]:
    """Factor z as unit * product(prime^exponent) with primary prime values.

    Factors are sorted by norm then re, conjugate with positive im first;
    the reconstruction is exact.
    """
    z = as_gauss(z)
    if z.is_zero():
        raise InputError("cannot factor 0")
    remaining = z
    factors: list[tuple[GaussPrime, int]] = []
    for p, _ in sorted(_factor_int(z.norm()).items()):
        if p == 2:
            candidates = [ONE_PLUS_I]
        elif p % 4 == 1:
            pi = _split_prime_above(p)
            candidates = [pi, pi.conjugate()]
        else:
            candidates = [GaussInt(p, 0)]
        for candidate in candidates:
            prime = _make_prime(candidate)
            e = 0
            while True:
                q, r = gauss_divmod(remaining, prime.value)
                if not r.is_zero():
                    break
                remaining, e = q, e + 1
            if e:
                factors.append((prime, e))
    if not remaining.is_unit():
        raise AssertionError(f"unreachable: nonunit cofactor {remaining} factoring {z}")
    factors.sort(key=lambda fe: (fe[0].norm, fe[0].value.re, -fe[0].value.im))
    return remaining, factors


def odd_part(z: GaussIntLike) -> GaussInt:
    """z with all 1+i factors removed (an odd Gaussian integer, or a unit).

    (1+i)^2 = 2i, so with v the lesser 2-adic valuation of re and im,
    z / (1+i)^(2v) = (-i)^v * z / 2^v; one 1+i is left exactly when both
    parts of z / 2^v are odd.
    """
    z = as_gauss(z)
    if z.is_zero():
        raise InputError("0 has no odd part")
    v = min((x & -x).bit_length() - 1 for x in (z.re, z.im) if x)
    re, im = z.re >> v, z.im >> v
    for _ in range(v % 4):
        re, im = im, -re  # times -i
    z = GaussInt(re, im)
    return z if z.is_odd() else exact_div(z, ONE_PLUS_I)


def _rational_sieve(bound: int) -> bytearray:
    """Sieve of Eratosthenes: entry n is 1 exactly when n is a rational prime,
    for 0 <= n <= bound."""
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, bound + 1, p)))
    return sieve


def primes_up_to_norm(bound: int, odd_only: bool = True) -> list[GaussPrime]:
    """All primary Gaussian primes with norm <= bound, one per associate class,
    ordered by norm then re, conjugate with positive im first. The ramified
    prime 1+i is excluded when odd_only.

    The walk is memoised per bound; each call builds its own list from it.
    """
    walk = _odd_prime_walk(bound)
    out = [] if odd_only else [GaussPrime(ONE_PLUS_I, 2, "ramified")]
    out.extend(
        GaussPrime(GaussInt(re, im), norm, "inert" if im == 0 else "split")
        for re, im, norm in zip(walk[::4], walk[1::4], walk[2::4])
    )
    return out


@lru_cache(maxsize=8)
def _odd_prime_walk(bound: int) -> array:
    """re, im, norm and the image of i of each odd primary prime with norm
    <= bound, in scan order.

    Every rational prime p = 1 (mod 4) is x^2 + y^2 for exactly one pair of
    positive integers with x odd and y even, so the walk visits those lattice
    points and keeps the p the sieve marks prime.  The primary primes above p
    are a + yi and a - yi, with a = x when x + y = 1 (mod 4) and a = -x
    otherwise.  The image of i is the residue i takes in Z[i]/(pi) = F_p at a
    split prime, so a + bi = 0 there reads a + b*image = 0 (mod p): a + yi
    and a - yi send i to -a/y and a/y, one modular inverse per p and no
    square root of -1.  An inert prime -q, for q = 3 (mod 4) with q^2 <=
    bound, stores 0 there; its residue field is F_q[i].

    Kept flat in one int array: a memo of thousands of live GaussPrime
    objects pins small allocations all over the heap, and repeated scans
    then peaked about 2 MB higher at norm 3e4.
    """
    if bound < 2:
        raise InputError("bound must be at least 2")
    sieve = _rational_sieve(bound)
    keys = []  # (p, a, y, a/y mod p) for the pair a +/- yi, (q^2, -q, 0, 0) for -q
    for x in range(1, isqrt(bound) + 1, 2):
        for y in range(2, isqrt(bound - x * x) + 1, 2):
            p = x * x + y * y
            if sieve[p]:
                a = x if (x + y) % 4 == 1 else -x
                keys.append((p, a, y, a * pow(y, -1, p) % p))
    # -q = 1 (mod 4) is primary
    keys += [(q * q, -q, 0, 0) for q in range(3, isqrt(bound) + 1, 4) if sieve[q]]
    keys.sort()
    walk = array("q")
    for norm, a, b, t in keys:
        walk.extend((a, b, norm, norm - t, a, -b, norm, t) if b else (a, 0, norm, 0))
    return walk


# -- literal grammar ---------------------------------------------------------

# ASCII digits only: \d would also take other scripts' digits, which int() reads
_GAUSS_RE = _re.compile(
    r"""^\s*
        (?P<first>[+-]?[0-9]+|[+-]?[0-9]*i)    # real part, or a lone imaginary part
        (?P<second>[+-][0-9]*i)?               # optional imaginary part
        \s*$""",
    _re.VERBOSE,
)


def parse_gauss(text: str) -> GaussInt:
    """Parse a Gaussian integer literal: 'a', 'bi', 'a+bi', 'a-bi', 'i', '-i'."""
    if not isinstance(text, str):
        raise ParseError(f"expected a string literal, got {type(text).__name__}")
    normalized = text.replace("−", "-")  # accept the unicode minus sign
    m = _GAUSS_RE.match(normalized)
    if not m:
        for pos, ch in enumerate(normalized):
            if ch not in "+-0123456789i \t":
                raise ParseError(f"invalid character {ch!r} in Gaussian literal", pos)
        raise ParseError(f"malformed Gaussian literal {text!r}", 0)
    first, second = m.group("first"), m.group("second")

    def value(group: str, digits: str) -> int:
        try:
            return int(digits)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            n = len(digits.lstrip("+-"))
            raise ParseError(f"a part of {n} digits is too long for int()", m.start(group)) from None

    def imag_value(group: str) -> int:
        digits = m.group(group)[:-1]  # strip the trailing i
        if digits in ("", "+"):
            return 1
        if digits == "-":
            return -1
        return value(group, digits)

    if first.endswith("i"):
        if second is not None:
            raise ParseError(f"two imaginary parts in {text!r}", len(first))
        return GaussInt(0, imag_value("first"))
    re_part = value("first", first)
    im_part = imag_value("second") if second is not None else 0
    return GaussInt(re_part, im_part)


def format_gauss(z: GaussIntLike) -> str:
    """Canonical literal: 'a+bi' / 'a-bi' / 'a' / 'bi', with unit imaginary
    parts written as 'i'. Round-trips through parse_gauss exactly."""
    z = as_gauss(z)
    if z.im == 0:
        return str(z.re)
    if z.im == 1:
        imag = "i"
    elif z.im == -1:
        imag = "-i"
    else:
        imag = f"{z.im}i"
    if z.re == 0:
        return imag
    sign = "" if imag.startswith("-") else "+"
    return f"{z.re}{sign}{imag}"
