"""Residue rings R/beta, unit groups, subgroup closure, class maps."""

import math

import pytest

from conftest import gi
from lemnatomic import residue
from lemnatomic.errors import InputError, NotCoprime, NotOdd
from lemnatomic.gaussint import GaussInt, _factor_int, gauss_gcd, is_primary
from lemnatomic.residue import (
    ResidueRing,
    _greedy_generators,
    _order_of,
    class_of,
    phi_norm,
    residue_ring,
    subgroup_generated,
    unit_group,
)


class TestResidueRing:
    def test_inert_nine(self):
        ring = residue_ring(gi("-3"))
        assert ring.size == 9
        reps = ring.representatives()
        assert len(reps) == 9
        assert set(reps) == {GaussInt(x, y) for x in range(3) for y in range(3)}

    def test_split_five(self):
        ring = residue_ring(gi("-1+2i"))
        assert ring.size == 5
        assert set(ring.representatives()) == {GaussInt(x, 0) for x in range(5)}
        assert ring.canonical_rep(gi("i")) == gi("3")

    def test_modulus_class_is_zero(self):
        for b in ("-3", "-1+2i", "-3-4i", "3-6i"):
            ring = residue_ring(gi(b))
            assert ring.canonical_rep(ring.modulus) == gi("0")

    def test_input_normalized_to_primary(self):
        ring = residue_ring(gi("3"))
        assert ring.modulus == gi("-3")
        assert is_primary(ring.modulus)

    def test_even_or_unit_rejected(self):
        with pytest.raises(InputError):
            residue_ring(gi("1+i"))
        with pytest.raises(InputError):
            residue_ring(gi("i"))

    def test_canonical_rep_idempotent_constant_on_cosets(self, rng):
        ring = residue_ring(gi("-3-4i"))
        for _ in range(200):
            z = GaussInt(rng.randint(-50, 50), rng.randint(-50, 50))
            rep = ring.canonical_rep(z)
            assert ring.canonical_rep(rep) == rep
            shift = z + ring.modulus * GaussInt(rng.randint(-3, 3), rng.randint(-3, 3))
            assert ring.canonical_rep(shift) == rep


class TestUnitGroup:
    def test_above_the_enumeration_limit_rejected_up_front(self, monkeypatch):
        assert residue.UNIT_GROUP_MAX_NORM == 10**6
        with pytest.raises(InputError, match="enumeration limit"):
            unit_group(residue_ring(gi("1001")))  # N = 1002001
        # the limit is read at call time and admits N(beta) equal to it;
        # nothing is enumerated past it
        monkeypatch.setattr(residue, "UNIT_GROUP_MAX_NORM", 45)
        assert unit_group(residue_ring(gi("3-6i"))).order == phi_norm(gi("3-6i"))
        monkeypatch.setattr(ResidueRing, "representatives", None)
        with pytest.raises(InputError, match="N\\(beta\\) = 81 is above"):
            unit_group(residue_ring(gi("9")))

    def test_inert_nine(self):
        group = unit_group(residue_ring(gi("-3")))
        assert group.order == 8
        assert tuple(group.invariant_factors) == (8,)
        assert _order_of(group.ring, gi("1+i"), group.order) == 8

    def test_split_five(self):
        group = unit_group(residue_ring(gi("-1+2i")))
        assert group.order == 4
        assert tuple(group.invariant_factors) == (4,)

    def test_order_fifteen(self):
        assert unit_group(residue_ring(gi("15"))).order == 128

    def test_invariant_factor_chain(self):
        for b in ("-3", "-1+2i", "-3-4i", "3-6i", "15"):
            group = unit_group(residue_ring(gi(b)))
            facs = list(group.invariant_factors)
            prod = 1
            for d, nxt in zip(facs, facs[1:]):
                assert nxt % d == 0
            for d in facs:
                prod *= d
            assert prod == group.order == phi_norm(gi(b))

    def test_unit_count_exhaustive(self):
        for b in ("-3", "-1+2i", "-1-2i", "-3-4i", "3-6i"):
            ring = residue_ring(gi(b))
            count = sum(
                1
                for rep in ring.representatives()
                if not rep.is_zero() and gauss_gcd(rep, ring.modulus).is_unit()
            )
            assert count == phi_norm(gi(b))

    def test_generators_generate(self):
        for b in ("-3", "-1+2i", "-3-4i"):
            group = unit_group(residue_ring(gi(b)))
            sub = subgroup_generated(group, group.generators)
            assert len(sub) == group.order

    @pytest.mark.parametrize("b", ["-3-4i", "11-2i", "9", "27", "45", "63", "3-6i"])
    def test_invariant_factors_count_the_elements_of_each_order(self, b):
        # the number of x with x^k = 1 is prod gcd(k, d_i) for the group
        # C_d1 x C_d2 x ..., and these counts over the divisors k of the
        # order fix a finite abelian group up to isomorphism; 27 and 63 hold
        # inert prime powers, 45 and 63 mix them with other primes
        group = unit_group(residue_ring(gi(b)))
        orders = [_order_of(group.ring, x, group.order) for x in group.elements]
        for k in (k for k in range(1, group.order + 1) if group.order % k == 0):
            want = 1
            for d in group.invariant_factors:
                want *= math.gcd(k, d)
            assert sum(1 for n in orders if k % n == 0) == want


class TestSubgroupGenerated:
    def test_two_generates_f5(self):
        group = unit_group(residue_ring(gi("-1+2i")))
        assert len(subgroup_generated(group, [gi("2")])) == 4

    def test_four_gives_order_two(self):
        group = unit_group(residue_ring(gi("-1+2i")))
        assert set(subgroup_generated(group, [gi("4")])) == {gi("1"), gi("4")}

    def test_empty_gives_identity(self):
        group = unit_group(residue_ring(gi("-3")))
        assert set(subgroup_generated(group, [])) == {gi("1")}

    def test_noninvertible_rejected(self):
        group = unit_group(residue_ring(gi("-3")))
        with pytest.raises(InputError):
            subgroup_generated(group, [gi("0")])

    def test_lagrange_random(self, rng):
        group = unit_group(residue_ring(gi("3-6i")))
        elements = list(group.elements)
        for _ in range(25):
            gens = rng.sample(elements, rng.randint(1, 3))
            assert group.order % len(subgroup_generated(group, gens)) == 0


def pairwise_closure(ring, seed):
    """Reference closure: multiply every new element by every element already
    closed, until nothing new appears (O(order^2) products)."""
    closed = set(seed)
    frontier = list(seed)
    while frontier:
        x = frontier.pop()
        for y in list(closed):
            z = ring.mul(x, y)
            if z not in closed:
                closed.add(z)
                frontier.append(z)
    return closed


def pairwise_generators(ring, elements, order):
    """Reference greedy generators over pairwise_closure."""
    gens = []
    current = {ring.canonical_rep(gi("1"))}
    for x in sorted(elements, key=lambda r: (r.re, r.im)):
        if x in current:
            continue
        gens.append(x)
        current = pairwise_closure(ring, current | {x})
        if len(current) == order:
            break
    return tuple(gens)


def power_counting_invariant_factors(ring, elements, order):
    """Reference invariant factors: count the kernel of x -> x^(p^j) by raising
    every element to every p^j, read the p-exponents off the conjugate
    partition, and combine primes largest exponents first."""
    one = ring.canonical_rep(gi("1"))
    exponents_by_prime = {}
    for p in sorted(_factor_int(order)):
        counts = [0]
        j = 1
        while True:
            kernel = sum(1 for x in elements if ring.pow(x, p**j) == one)
            s = 0
            while p**s < kernel:
                s += 1
            assert p**s == kernel
            if s == counts[-1]:
                break
            counts.append(s)
            j += 1
        rows = [counts[k] - counts[k - 1] for k in range(1, len(counts))]
        exps = []
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


# odd moduli with N <= 500: inert, split, prime powers and mixed products,
# among them 9, -7, -3-4i and (-1+2i)(-3) = 3-6i
CLOSURE_MODULI = ("9", "-7", "-3-4i", "3-6i", "-1+2i", "-3", "5+4i", "-11", "15", "-7+2i", "13", "21")


class TestClosure:
    @pytest.mark.parametrize("b", CLOSURE_MODULI)
    def test_generators_match_pairwise_reference(self, b):
        ring = residue_ring(gi(b))
        assert ring.size <= 500
        group = unit_group(ring)
        assert group.generators == pairwise_generators(ring, list(group.elements), group.order)

    @pytest.mark.parametrize("b", CLOSURE_MODULI)
    def test_invariant_factors_match_power_counting(self, b):
        ring = residue_ring(gi(b))
        group = unit_group(ring)
        elements = list(group.elements)
        assert group.invariant_factors == power_counting_invariant_factors(ring, elements, group.order)

    @pytest.mark.parametrize("b", CLOSURE_MODULI)
    def test_subgroups_match_pairwise_reference(self, b, rng):
        ring = residue_ring(gi(b))
        group = unit_group(ring)
        one = ring.canonical_rep(gi("1"))
        for _ in range(4):
            gens = rng.sample(list(group.elements), rng.randint(1, 3))
            expected = pairwise_closure(ring, {one, *gens})
            assert set(subgroup_generated(group, gens)) == expected

    @pytest.mark.parametrize("b", CLOSURE_MODULI)
    def test_products_bounded_by_order_times_generators(self, b, rng, monkeypatch):
        ring = residue_ring(gi(b))
        group = unit_group(ring)
        calls = []
        real = ResidueRing.mul
        monkeypatch.setattr(ResidueRing, "mul", lambda self, x, y: calls.append(1) or real(self, x, y))
        for gens in (group.generators, rng.sample(list(group.elements), 3)):
            calls.clear()
            sub = subgroup_generated(group, gens)
            assert len(calls) <= len(sub) * len(gens)

    @pytest.mark.parametrize("b", CLOSURE_MODULI + ("-43",))
    def test_generators_take_under_twice_the_order_in_products(self, b, monkeypatch):
        # the generator pass of unit_group grows one subgroup, a coset at a time
        ring = residue_ring(gi(b))
        group = unit_group(ring)
        calls = []
        real = ResidueRing.mul
        monkeypatch.setattr(ResidueRing, "mul", lambda self, x, y: calls.append(1) or real(self, x, y))
        assert _greedy_generators(ring, list(group.elements)) == group.generators
        assert len(calls) < 2 * group.order


class TestClassOf:
    def test_examples(self):
        ring = residue_ring(gi("-1+2i"))
        assert class_of(gi("3"), ring, "primary") == gi("2")
        assert class_of(gi("3"), ring, "raw") == gi("3")
        assert class_of(gi("1"), ring, "primary") == gi("1")

    def test_not_coprime(self):
        ring = residue_ring(gi("-3"))
        with pytest.raises(NotCoprime):
            class_of(gi("3"), ring, "primary")

    def test_even_rejected_in_primary_mode(self):
        ring = residue_ring(gi("-3"))
        with pytest.raises(NotOdd):
            class_of(gi("1+i"), ring, "primary")

    def test_multiplicative_raw_and_primary(self, rng):
        ring = residue_ring(gi("-3-4i"))
        group = unit_group(ring)
        for _ in range(100):
            a = GaussInt(rng.randint(-40, 40), rng.randint(-40, 40))
            b = GaussInt(rng.randint(-40, 40), rng.randint(-40, 40))
            if not gauss_gcd(a, ring.modulus).is_unit():
                continue
            if not gauss_gcd(b, ring.modulus).is_unit():
                continue
            assert class_of(a * b, ring, "raw") == ring.mul(
                class_of(a, ring, "raw"), class_of(b, ring, "raw")
            )
            if a.is_odd() and b.is_odd() and (a * b).is_odd():
                assert class_of(a * b, ring, "primary") == ring.mul(
                    class_of(a, ring, "primary"), class_of(b, ring, "primary")
                )


class TestPhiNorm:
    def test_examples(self):
        assert phi_norm(gi("-3")) == 8
        assert phi_norm(gi("-1+2i")) == 4
        assert phi_norm(gi("-3-4i")) == 20  # (-1+2i)^2

    def test_unit_convention(self):
        assert phi_norm(gi("1")) == 1

    def test_even_rejected(self):
        with pytest.raises(InputError):
            phi_norm(gi("2"))

    def test_multiplicative_crt(self):
        assert phi_norm(gi("-3") * gi("-1+2i")) == phi_norm(gi("-3")) * phi_norm(gi("-1+2i"))
        assert phi_norm(gi("15")) == phi_norm(gi("-3")) * phi_norm(gi("5"))
