"""Gaussian-integer arithmetic: ring ops, Euclidean division, gcd, primes,
normalization, parsing. Examples are fixed oracles; property tests run on a
seeded RNG so failures reproduce."""

import gc
import importlib.util
import sys
import weakref

import pytest

from conftest import gi
from lemnatomic import gaussint
from lemnatomic.errors import InputError, NotOdd, ParseError
from lemnatomic.gaussint import (
    UNITS,
    GaussInt,
    _unit_to_first_quadrant,
    canonical_associate,
    divides,
    exact_div,
    factor,
    format_gauss,
    gauss_divmod,
    gauss_gcd,
    is_primary,
    is_prime,
    odd_part,
    parse_gauss,
    primary_normalize,
    primes_up_to_norm,
)


def rand_gauss(rng, span=1000):
    return GaussInt(rng.randint(-span, span), rng.randint(-span, span))


class TestRingArithmetic:
    def test_one_plus_i_squared(self):
        assert GaussInt(1, 1) * GaussInt(1, 1) == GaussInt(0, 2)

    def test_norm_identity_product(self):
        assert GaussInt(2, 1) * GaussInt(2, -1) == GaussInt(5, 0)

    def test_conjugate_and_norm(self):
        z = GaussInt(3, 2)
        assert z.conjugate() == GaussInt(3, -2)
        assert z.norm() == 13

    def test_is_unit(self):
        units = [GaussInt(1, 0), GaussInt(-1, 0), GaussInt(0, 1), GaussInt(0, -1)]
        assert all(u.is_unit() for u in units)
        assert not GaussInt(1, 1).is_unit()
        assert not GaussInt(0, 0).is_unit()

    def test_norm_multiplicative_random(self, rng):
        for _ in range(200):
            a, b = rand_gauss(rng), rand_gauss(rng)
            assert (a * b).norm() == a.norm() * b.norm()

    def test_norm_zero_iff_zero(self, rng):
        assert GaussInt(0, 0).norm() == 0
        for _ in range(100):
            z = rand_gauss(rng)
            assert (z.norm() == 0) == (z == GaussInt(0, 0))


class TestModularArithmetic:
    @pytest.mark.parametrize("p", [3, 7, 11])
    def test_mod_truth_and_inverse_on_every_residue(self, p):
        # p = 3 mod 4 is inert, so every nonzero residue x + yi is a unit of F_{p^2}
        for x in range(p):
            for y in range(p):
                z, lifted = GaussInt(x, y), GaussInt(x - 5 * p, y + 3 * p)
                assert lifted % p == z and -lifted % p == GaussInt(-x % p, -y % p)
                assert bool(z) == (x != 0 or y != 0) and bool(lifted) and not lifted - lifted
                if not z:
                    continue
                inv = pow(z, -1, p)
                assert 0 <= inv.re < p and 0 <= inv.im < p
                assert z * inv % p == GaussInt(1, 0)
                assert pow(lifted, -1, p) == inv

    @pytest.mark.parametrize(
        "z, p", [(GaussInt(0, 0), 3), (GaussInt(7, -14), 7), (GaussInt(1, 2), 5), (GaussInt(3, 4), 5)]
    )
    def test_inverse_rejected_when_p_divides_the_norm(self, z, p):
        with pytest.raises(ValueError):
            pow(z, -1, p)

    def test_only_the_inverse_takes_a_modulus(self):
        with pytest.raises(InputError):
            pow(GaussInt(1, 2), 2, 7)
        assert GaussInt(1, 2) ** 2 == GaussInt(-3, 4)


class TestDivmod:
    def test_example(self):
        q, r = gauss_divmod(gi("5+3i"), gi("2+i"))
        assert (q, r) == (gi("3"), gi("-1"))

    def test_tie_rounds_down(self):
        q, r = gauss_divmod(gi("1+i"), gi("2"))
        assert (q, r) == (gi("0"), gi("1+i"))
        assert r.norm() * 2 <= gi("2").norm() * 1  # norm(r) <= norm(d)/2

    def test_unit_divisor(self, rng):
        for _ in range(50):
            z = rand_gauss(rng)
            assert gauss_divmod(z, GaussInt(1, 0)) == (z, GaussInt(0, 0))

    def test_euclidean_bound_random(self, rng):
        for _ in range(300):
            a = rand_gauss(rng)
            d = rand_gauss(rng, span=60)
            if d.is_zero():
                continue
            q, r = gauss_divmod(a, d)
            assert q * d + r == a
            assert 2 * r.norm() <= d.norm()

    def test_zero_divisor_rejected(self):
        with pytest.raises(InputError):
            gauss_divmod(gi("1"), gi("0"))


class TestGcd:
    def test_example_common_prime(self):
        assert gauss_gcd(gi("5"), gi("3+i")) == gi("1+2i")

    def test_with_zero(self, rng):
        for _ in range(30):
            z = rand_gauss(rng)
            if z.is_zero():
                continue
            assert gauss_gcd(z, gi("0")) == canonical_associate(z)

    def test_coprime_conjugates(self):
        assert gauss_gcd(gi("2+i"), gi("2-i")) == gi("1")

    def test_both_zero_rejected(self):
        with pytest.raises(InputError):
            gauss_gcd(gi("0"), gi("0"))

    def test_divides_both_and_constructed_common_factor(self, rng):
        for _ in range(100):
            g = rand_gauss(rng, span=20)
            if g.is_zero():
                continue
            x, y = rand_gauss(rng, span=20), rand_gauss(rng, span=20)
            if x.is_zero() or y.is_zero() or not gauss_gcd(x, y).is_unit():
                continue
            got = gauss_gcd(g * x, g * y)
            assert divides(got, g * x) and divides(got, g * y)
            assert got == canonical_associate(g)

    def test_canonical_first_quadrant(self, rng):
        for _ in range(100):
            a, b = rand_gauss(rng, span=50), rand_gauss(rng, span=50)
            if a.is_zero() and b.is_zero():
                continue
            g = gauss_gcd(a, b)
            assert g.re > 0 and g.im >= 0

    def test_unit_to_first_quadrant_matches_definition(self):
        # every nonzero z on the grid, the axes included: exactly one unit u
        # puts u * z at re > 0, im >= 0, and canonical_associate is u * z
        assert canonical_associate(gi("0")) == gi("0")
        for re in range(-20, 21):
            for im in range(-20, 21):
                z = GaussInt(re, im)
                if z.is_zero():
                    continue
                hits = [u for u in UNITS if (u * z).re > 0 and (u * z).im >= 0]
                assert hits == [_unit_to_first_quadrant(z)]
                assert canonical_associate(z) == hits[0] * z


class TestPrimaryNormalize:
    def test_examples(self):
        assert primary_normalize(gi("2+i")) == (gi("i"), gi("-1+2i"))
        assert primary_normalize(gi("3")) == (gi("-1"), gi("-3"))
        assert primary_normalize(gi("-1+2i")) == (gi("1"), gi("-1+2i"))

    def test_even_rejected(self):
        with pytest.raises(NotOdd):
            primary_normalize(gi("1+i"))

    def test_unique_primary_associate(self, rng):
        two_one_i = gi("2+2i")
        for _ in range(200):
            z = rand_gauss(rng, span=80)
            if z.is_zero() or divides(gi("1+i"), z):
                continue
            hits = [
                u * z
                for u in (gi("1"), gi("-1"), gi("i"), gi("-i"))
                if divides(two_one_i, u * z - gi("1"))
            ]
            assert len(hits) == 1
            u, p = primary_normalize(z)
            assert p == hits[0] and u * z == p and is_primary(p)


class TestFactor:
    def test_factor_five(self):
        unit, facs = factor(gi("5"))
        assert unit == gi("1")
        assert [(p.value, e) for p, e in facs] == [(gi("-1+2i"), 1), (gi("-1-2i"), 1)]

    def test_factor_nine(self):
        unit, facs = factor(gi("9"))
        assert unit == gi("1")
        assert [(p.value, e) for p, e in facs] == [(gi("-3"), 2)]

    def test_ramified_prime(self):
        assert is_prime(gi("1+i"))
        unit, facs = factor(gi("2"))
        assert facs[0][0].value == gi("1+i") and facs[0][1] == 2

    def test_zero_rejected(self):
        with pytest.raises(InputError):
            factor(gi("0"))

    def test_reconstruction_and_primality_random(self, rng):
        for _ in range(60):
            z = rand_gauss(rng, span=300)
            if z.is_zero():
                continue
            unit, facs = factor(z)
            prod = unit
            for p, e in facs:
                assert is_prime(p.value)
                assert p.norm == p.value.norm()
                assert p.kind in ("split", "inert", "ramified")
                for _ in range(e):
                    prod = prod * p.value
            assert prod == z

    def test_prime_kind_matches_norm(self, rng):
        for p, _ in factor(gi("1105"))[1]:  # 5 * 13 * 17
            assert p.kind == "split" and p.norm % 4 == 1

    def test_odd_part(self):
        assert odd_part(gi("2")).is_unit()
        assert odd_part(gi("-3")) == gi("-3")
        # (1+i)^3 * (-3) has odd part -3 up to primary normalization
        z = gi("1+i") * gi("1+i") * gi("1+i") * gi("-3")
        assert primary_normalize(odd_part(z))[1] == gi("-3")


class TestPrimesUpToNorm:
    def test_small_list(self):
        got = [p.value for p in primes_up_to_norm(10)]
        assert got == [gi("-1+2i"), gi("-1-2i"), gi("-3")]

    def test_empty_below_ramified(self):
        assert primes_up_to_norm(2) == []

    def test_each_call_gets_its_own_list(self):
        first = primes_up_to_norm(50)
        want = list(first)
        first.clear()
        again = primes_up_to_norm(50)
        assert again == want and again is not first
        assert primes_up_to_norm(50, odd_only=False)[0].kind == "ramified"

    def test_count_against_rational_sieve(self):
        bound = 10**4
        sieve = [True] * (bound + 1)
        sieve[0] = sieve[1] = False
        for n in range(2, int(bound**0.5) + 1):
            if sieve[n]:
                for m in range(n * n, bound + 1, n):
                    sieve[m] = False
        split = sum(1 for p in range(2, bound + 1) if sieve[p] and p % 4 == 1)
        inert = sum(1 for p in range(2, bound + 1) if sieve[p] and p % 4 == 3 and p * p <= bound)
        assert len(primes_up_to_norm(bound)) == 2 * split + inert

    def test_all_primary_and_sorted(self):
        primes = primes_up_to_norm(500)
        assert all(is_primary(p.value) for p in primes)
        norms = [p.norm for p in primes]
        assert norms == sorted(norms)

    def test_bad_bound(self):
        with pytest.raises(InputError):
            primes_up_to_norm(1)


def reference_walk(bound):
    """re, im, norm and the image of i (-re / im mod p at a split prime, 0 at
    an inert one) of each odd primary prime with norm <= bound, built from
    Gaussian gcds and primary_normalize, ordered by norm, re, then -im."""
    keys = []
    for p in range(3, bound + 1):
        if any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            continue
        if p % 4 == 1:
            a = next(a for a in range(2, p) if (a * a + 1) % p == 0)
            pi = gauss_gcd(GaussInt(p, 0), GaussInt(a, 1))
            primes = [primary_normalize(z)[1] for z in (pi, pi.conjugate())]
        elif p * p <= bound:
            primes = [primary_normalize(GaussInt(p, 0))[1]]
        else:
            continue
        keys += [(z.norm(), z.re, -z.im, -z.re * pow(z.im, -1, p) % p if z.im else 0) for z in primes]
    return [x for norm, re, neg_im, image in sorted(keys) for x in (re, -neg_im, norm, image)]


class TestOddPrimeWalk:
    @pytest.mark.parametrize("bound", [2, 5, 9, 10, 49, 50, 1000, 5000])
    def test_matches_gaussian_gcds(self, bound):
        assert list(gaussint._odd_prime_walk(bound)) == reference_walk(bound)

    def test_image_of_i_is_the_residue_of_i(self):
        # a + bi = 0 in Z[i]/(pi) = F_p reads a + b*image = 0 (mod p), and image^2 = -1
        walk = gaussint._odd_prime_walk(10**5)
        split = 0
        for a, b, p, image in zip(walk[::4], walk[1::4], walk[2::4], walk[3::4]):
            if b:
                split += 1
                assert (a + b * image) % p == 0 and (image * image + 1) % p == 0, (a, b)
                assert 0 < image < p
            else:
                assert image == 0 and p == a * a
        assert split == 2 * sum(1 for p in range(5, 10**5, 4) if gaussint._is_rational_prime(p))

    def test_split_prime_above_divides_the_root_plus_i(self):
        for p in [p for p in range(5, 5000, 4) if gaussint._is_rational_prime(p)] + [4611686018427387817]:
            s = gaussint._sqrt_minus_one(p)
            pi = gaussint._split_prime_above(p)
            assert pi == gauss_gcd(GaussInt(p, 0), GaussInt(s, 1)), p
            assert pi.norm() == p and pi.re > 0 and pi.im > 0


class TestParseFormat:
    def test_parse_examples(self):
        assert parse_gauss("-1+2i") == GaussInt(-1, 2)
        assert parse_gauss("i") == GaussInt(0, 1)
        assert parse_gauss("-i") == GaussInt(0, -1)
        assert parse_gauss("3i") == GaussInt(0, 3)
        assert parse_gauss("7") == GaussInt(7, 0)

    def test_format_examples(self):
        assert format_gauss(GaussInt(3, -2)) == "3-2i"
        assert format_gauss(GaussInt(0, 1)) == "i"
        assert format_gauss(GaussInt(0, 0)) == "0"
        assert format_gauss(GaussInt(-1, 2)) == "-1+2i"

    def test_round_trip_random(self, rng):
        for _ in range(300):
            z = rand_gauss(rng, span=10**6)
            assert parse_gauss(format_gauss(z)) == z

    @pytest.mark.parametrize("bad", ["", "x", "1+", "i+1", "2i+3", "1+2j", "1 + 2i+"])
    def test_malformed_literals(self, bad):
        with pytest.raises(ParseError) as err:
            parse_gauss(bad)
        assert err.value.position >= 0

    @pytest.mark.parametrize("form, position", [("{}", 0), ("-{}", 0), ("{}i", 0), ("1-{}i", 1)])
    def test_a_part_past_the_int_digit_limit_is_a_parse_error(self, form, position):
        # the interpreter refuses to convert longer digit strings to an int;
        # the limit itself is left as it is
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("no int digit limit in this interpreter")
        digits = "1" * (limit + 1)
        with pytest.raises(ParseError, match=f"{limit + 1} digits") as err:
            parse_gauss(form.format(digits))
        assert err.value.position == position  # where the part, sign included, starts
        assert sys.get_int_max_str_digits() == limit
        assert parse_gauss(form.format("1" * limit)) == parse_gauss(form.format(digits[1:]))

    @pytest.mark.parametrize("bad", ["\u0661\u0663", "\uff11\uff13", "3+\u0662i", "\u0967i"])
    def test_non_ascii_digits_are_rejected(self, bad):
        # Arabic-Indic, fullwidth and Devanagari digits, which int() would read
        with pytest.raises(ParseError, match="invalid character"):
            parse_gauss(bad)


class TestExactDiv:
    def test_exact(self):
        assert exact_div(gi("5"), gi("2+i")) == gi("2-i")

    def test_inexact_rejected(self):
        with pytest.raises(InputError):
            exact_div(gi("5"), gi("3"))


def test_a_second_copy_of_the_module_is_freed():
    """Nothing process-wide keeps a copy of the module alive once it is
    dropped, so re-importing the package does not leak the old one."""
    spec = importlib.util.spec_from_file_location(gaussint.__name__, gaussint.__file__)
    copy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(copy)
    assert copy.GaussInt is not GaussInt
    alive = weakref.ref(copy.GaussInt)
    del copy
    gc.collect()
    assert alive() is None


def test_a_reimported_package_is_freed():
    """The same for the whole package, which the benchmark imports afresh
    for every pass: no module may pin GaussInt process-wide, as a
    typing.Union over it would, in typing's cache."""
    def ours(name):
        return name == "lemnatomic" or name.startswith("lemnatomic.")

    saved = {name: module for name, module in sys.modules.items() if ours(name)}
    try:
        for name in saved:
            del sys.modules[name]
        alive = weakref.ref(importlib.import_module("lemnatomic").gaussint.GaussInt)
        assert alive() is not GaussInt
    finally:
        for name in [name for name in sys.modules if ours(name)]:
            del sys.modules[name]
        sys.modules.update(saved)
    gc.collect()
    assert alive() is None
