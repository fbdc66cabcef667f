"""Residue rings Z[i]/(beta) for odd beta: canonical representatives from a
column-echelon basis of the lattice beta*Z[i], unit groups with invariant
factors, one incremental subgroup closure (_closure, which both
subgroup_generated and the unit group's generating set run), the
primary/raw class map for odd elements, and the norm-phi function that
gives the unit-group order.  A ring keeps its modulus's prime factors, and
a residue is a unit exactly when none of them divides it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import InputError, NotCoprime, NotOdd
from .gaussint import (
    GaussInt,
    GaussIntLike,
    GaussPrime,
    ONE,
    _factor_int,
    as_gauss,
    factor,
    primary_normalize,
)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


@dataclass(frozen=True, slots=True)
class ResidueRing:
    """Z[i]/(beta) with representatives {x + yi : 0 <= x < n1, 0 <= y < n2}.

    (n1, 0) and (c, n2) form a column-echelon basis of the lattice beta*Z[i],
    so n1*n2 = N(beta) and the representative set is complete and
    irredundant. The modulus is stored primary-normalized; associates
    generate the same lattice, hence the same ring.  primes holds its
    distinct prime factors, primary, as factor returns them.
    """

    modulus: GaussInt
    n1: int
    n2: int
    shear: int
    size: int
    primes: tuple[GaussPrime, ...]

    def canonical_rep(self, z: GaussIntLike) -> GaussInt:
        """The unique representative of z's coset; idempotent."""
        z = as_gauss(z)
        q, y = divmod(z.im, self.n2)
        x = (z.re - q * self.shear) % self.n1
        return GaussInt(x, y)

    def representatives(self) -> list[GaussInt]:
        """All N(beta) canonical representatives, (im, re)-major order."""
        return [GaussInt(x, y) for y in range(self.n2) for x in range(self.n1)]

    def add(self, a: GaussIntLike, b: GaussIntLike) -> GaussInt:
        return self.canonical_rep(as_gauss(a) + as_gauss(b))

    def mul(self, a: GaussIntLike, b: GaussIntLike) -> GaussInt:
        return self.canonical_rep(as_gauss(a) * as_gauss(b))

    def neg(self, a: GaussIntLike) -> GaussInt:
        return self.canonical_rep(-as_gauss(a))

    def pow(self, a: GaussIntLike, e: int) -> GaussInt:
        result, base = self.canonical_rep(ONE), self.canonical_rep(a)
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def is_invertible(self, z: GaussIntLike) -> bool:
        """True when no prime factor pi of the modulus divides z, i.e. when
        z * conj(pi) / N(pi) is not in Z[i] for every pi."""
        z = as_gauss(z)
        for pi in self.primes:
            a, b, n = pi.value.re, pi.value.im, pi.norm
            if (z.re * a + z.im * b) % n == 0 and (z.im * a - z.re * b) % n == 0:
                return False
        return True


def residue_ring(beta: GaussIntLike) -> ResidueRing:
    """Construct Z[i]/(beta) for odd non-unit beta (normalized to primary)."""
    beta = as_gauss(beta)
    if beta.is_zero() or not beta.is_odd():
        raise NotOdd(f"modulus {beta} must be odd (not divisible by 1+i)")
    if beta.is_unit():
        raise InputError("modulus must not be a unit")
    beta = primary_normalize(beta)[1]
    a, b = beta.re, beta.im
    n = beta.norm()
    # lattice rows (a, b) and (-b, a); echelon second generator (shear, n2)
    g, s, t = _xgcd(b, a)
    n2 = g
    n1 = n // g
    shear = (s * a - t * b) % n1
    return ResidueRing(beta, n1, n2, shear, n, tuple(prime for prime, _ in factor(beta)[1]))


def phi_norm(beta: GaussIntLike) -> int:
    """Order of (Z[i]/beta)*: product of N(pi)^(e-1) * (N(pi)-1) over the
    primary prime factorization. Units give 1."""
    beta = as_gauss(beta)
    if beta.is_zero() or not beta.is_odd():
        raise InputError(f"{beta} must be odd and nonzero")
    if beta.is_unit():
        return 1
    total = 1
    for prime, e in factor(beta)[1]:
        total *= prime.norm ** (e - 1) * (prime.norm - 1)
    return total


@dataclass(frozen=True, slots=True)
class UnitGroup:
    """(Z[i]/beta)* as an explicit finite abelian group."""

    ring: ResidueRing
    elements: tuple[GaussInt, ...]
    order: int
    invariant_factors: tuple[int, ...]
    generators: tuple[GaussInt, ...]

    def element_order(self, g: GaussIntLike) -> int:
        return _order_of(self.ring, g, self.order)


def _order_of(ring: ResidueRing, g: GaussIntLike, group_order: int) -> int:
    """The multiplicative order of the invertible class g mod ring.modulus,
    found by dividing group_order (phi_norm of the modulus) by each prime
    for as long as g^order stays 1; no unit group is built."""
    g = ring.canonical_rep(g)
    if not ring.is_invertible(g):
        raise NotCoprime(f"{g} is not invertible mod {ring.modulus}")
    order = group_order
    for p in sorted(_factor_int(group_order)):
        while order % p == 0 and ring.pow(g, order // p) == ring.canonical_rep(ONE):
            order //= p
    return order


def _element_orders(ring: ResidueRing, elements: list[GaussInt]) -> dict[GaussInt, int]:
    """The order of every element, one cyclic subgroup at a time: walking the
    powers of an element x of order n gives each x^k its order n / gcd(k, n).
    A walk starts only from an element no earlier walk reached, so it reaches
    the phi(n) generators of <x> for the first time: n products for at least
    phi(n) new orders, a small multiple of the group order in all."""
    one = ring.canonical_rep(ONE)
    orders: dict[GaussInt, int] = {}
    for x in elements:
        if x in orders:
            continue
        powers = [x]
        while powers[-1] != one:
            powers.append(ring.mul(powers[-1], x))
        n = len(powers)
        for k, y in enumerate(powers, start=1):
            orders.setdefault(y, n // gcd(k, n))
    return orders


def _invariant_factors(ring: ResidueRing, elements: list[GaussInt], order: int) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... via p-power counting.

    For each prime p | order, counting the solutions of x^(p^j) = 1 gives the
    conjugate of the partition formed by the p-exponents of the invariant
    factors; combining primes componentwise (largest exponents together)
    yields the divisibility chain.  The solutions of x^(p^j) = 1 are the x
    whose order divides p^j, so the kernels are counted from the element
    orders, each found once.
    """
    orders = _element_orders(ring, elements).values()
    exponents_by_prime: dict[int, list[int]] = {}
    for p in sorted(_factor_int(order)):
        counts = [0]  # log_p of |kernel of x -> x^(p^j)|, strictly increasing
        j = 1
        while True:
            pj = p**j
            kernel = sum(1 for d in orders if pj % d == 0)
            s = 0
            while p**s < kernel:
                s += 1
            if p**s != kernel:
                raise AssertionError("kernel size must be a power of p in an abelian group")
            if s == counts[-1]:
                break
            counts.append(s)
            j += 1
        rows = [counts[k] - counts[k - 1] for k in range(1, len(counts))]
        # rows[k-1] = number of cyclic p-factors with exponent >= k
        exps: list[int] = []
        for k, row in enumerate(rows, start=1):
            nxt = rows[k] if k < len(rows) else 0
            exps.extend([k] * (row - nxt))
        exponents_by_prime[p] = sorted(exps, reverse=True)
    width = max((len(v) for v in exponents_by_prime.values()), default=0)
    factors = []
    for idx in range(width):
        d = 1
        for p, exps in exponents_by_prime.items():
            if idx < len(exps):
                d *= p ** exps[idx]
        factors.append(d)
    return tuple(sorted(factors))


def unit_group(ring: ResidueRing) -> UnitGroup:
    """Enumerate the invertible classes and compute the group structure.

    Brute-force enumeration; intended scale N(beta) <= 1e5.
    """
    elements = [r for r in ring.representatives() if ring.is_invertible(r)]
    order = len(elements)
    invariants = _invariant_factors(ring, elements, order)
    generators = _greedy_generators(ring, elements)
    return UnitGroup(ring, tuple(elements), order, invariants, generators)


def _greedy_generators(ring: ResidueRing, elements: list[GaussInt]) -> tuple[GaussInt, ...]:
    """A deterministic generating set: scan representatives in (re, im) order,
    keeping any element that enlarges the subgroup generated so far."""
    return tuple(_closure(ring, sorted(elements, key=lambda r: (r.re, r.im)))[1])


def _closure(ring: ResidueRing, gens) -> tuple[set[GaussInt], list[GaussInt]]:
    """The subgroup generated by the invertible classes gens, and the gens
    that enlarged it, grown one generator at a time.

    A g outside the subgroup H built so far gives <H, g> = H u Hg u ... u
    Hg^(m-1), each coset the previous one times g, up to the first coset
    whose first element, g^m, is already in H.  A kept generator costs one
    product per element it adds and one for g^m, so the subgroup costs
    |subgroup| - 1 + len(kept) products; a g already in it costs none.
    """
    one = ring.canonical_rep(ONE)
    closed, elements, kept = {one}, [one], []
    for g in gens:
        if g in closed:
            continue
        kept.append(g)
        coset, added = elements, []
        while (first := ring.mul(coset[0], g)) not in closed:
            coset = [first] + [ring.mul(x, g) for x in coset[1:]]
            closed.update(coset)
            added += coset
        elements += added
    return closed, kept


def subgroup_generated(group: UnitGroup, gens) -> tuple[GaussInt, ...]:
    """Multiplicative closure of the given classes, as a sorted tuple.

    The empty set generates the trivial subgroup {1}.
    """
    ring = group.ring
    reps = []
    for g in gens:
        rep = ring.canonical_rep(as_gauss(g))
        if not ring.is_invertible(rep):
            raise InputError(f"generator {g} is not invertible mod {ring.modulus}")
        reps.append(rep)
    return tuple(sorted(_closure(ring, reps)[0], key=lambda r: (r.re, r.im)))


def class_of(z: GaussIntLike, ring: ResidueRing, normalization: str = "primary") -> GaussInt:
    """The class of z in (Z[i]/beta)*.

    primary mode reduces the primary associate of z (z must be odd), which
    quotients out units; raw mode reduces z exactly as given.
    """
    z = as_gauss(z)
    rep = ring.canonical_rep(z)
    if not ring.is_invertible(rep):
        raise NotCoprime(f"{z} shares a factor with {ring.modulus}")
    if normalization == "raw":
        return rep
    if normalization != "primary":
        raise InputError(f"unknown normalization {normalization!r}")
    if not z.is_odd():
        raise NotOdd(f"{z} is even; primary classes need odd elements")
    return ring.canonical_rep(primary_normalize(z)[1])
