"""Residue rings Z[i]/(beta) for odd beta: canonical representatives from a
column-echelon basis of the lattice beta*Z[i], unit groups with invariant
factors read off beta's factorization, one incremental subgroup closure
(_closure, which both subgroup_generated and the unit group's generating
set run), the primary/raw class map for odd elements, and the norm-phi
function that gives the unit-group order.  A ring keeps its modulus's prime
factors, and a residue is a unit exactly when none of them divides it.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def mul(self, a: GaussIntLike, b: GaussIntLike) -> GaussInt:
        return self.canonical_rep(as_gauss(a) * as_gauss(b))

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


def _invariant_factors(beta: GaussInt) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... of (Z[i]/beta)*, read off beta's
    factorization.

    By the Chinese remainder theorem the group is the product of the unit
    groups mod each prime power pi^e dividing beta: cyclic of order
    p^(e-1) (p - 1) for a split pi of norm p, as Z[i]/pi^e is Z/p^e, and
    C_(p^2-1) x C_(p^(e-1))^2 for an inert odd p.  Each cyclic order is split
    into prime powers, and combining primes componentwise (largest exponents
    together) yields the divisibility chain.
    """
    cyclic: list[int] = []
    for prime, e in factor(beta)[1]:
        if prime.kind == "split":
            cyclic.append(prime.norm ** (e - 1) * (prime.norm - 1))
        else:
            p = abs(prime.value.re)  # an inert prime is -p, p = 3 (mod 4)
            cyclic += [p * p - 1, p ** (e - 1), p ** (e - 1)]
    exponents: dict[int, list[int]] = {}
    for order in cyclic:
        for p, k in _factor_int(order).items():
            exponents.setdefault(p, []).append(k)
    factors = [1] * max(map(len, exponents.values()), default=0)
    for p, exps in exponents.items():
        for idx, k in enumerate(sorted(exps, reverse=True)):
            factors[idx] *= p**k
    return tuple(sorted(factors))


# unit_group lists every residue: on a 2-core host with Python 3.11,
# N(beta) = 1e6 takes about 8 s and 230 MB, and 1e7 about 110 s and 2.4 GB.
# A larger modulus fails fast instead.
UNIT_GROUP_MAX_NORM = 10**6


def unit_group(ring: ResidueRing) -> UnitGroup:
    """Enumerate the invertible classes; the invariant factors come from the
    modulus's factorization and the generators from one greedy closure.

    Brute-force enumeration of all N(beta) residues: InputError, before any
    work, when N(beta) exceeds UNIT_GROUP_MAX_NORM (read at call time).
    """
    if ring.size > UNIT_GROUP_MAX_NORM:
        raise InputError(
            f"N(beta) = {ring.size} is above the unit group's enumeration limit of {UNIT_GROUP_MAX_NORM}"
        )
    elements = [r for r in ring.representatives() if ring.is_invertible(r)]
    order = len(elements)
    invariants = _invariant_factors(ring.modulus)
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
