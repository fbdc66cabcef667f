"""Residue fields F_q = Z[i]/(pi) and polynomial tests over them."""

import pytest

from conftest import gi
from lemnatomic.errors import InputError
from lemnatomic.exact import lemnatomic_exact
from lemnatomic.gaussint import GaussInt, _split_prime_above, divides, primes_up_to_norm
from lemnatomic.gfq import (
    NO_ROOT,
    ROOT,
    SPLITS,
    PolyFq,
    _deflate,
    _PackedModulus,
    _int_gcd,
    factor_degrees,
    has_root,
    poly_gcd,
    reduce_poly,
    residue_field,
    root_status,
    splits_completely,
    squarefree,
)
from lemnatomic.residue import class_of, residue_ring, unit_group
from lemnatomic.zipoly import PolyZi, poly

# split primes p = 1 mod 4: small, near the scan bound 3e4, and above 2^61
SMALL_SPLIT = (5, 13, 17, 29)
MID_SPLIT = (29989, 30013)
BIG_SPLIT = (4611686018427387817,)


def rand_zipoly(rng, max_deg=5, span=9):
    degree = rng.randint(0, max_deg)
    return PolyZi.make(
        [GaussInt(rng.randint(-span, span), rng.randint(-span, span)) for _ in range(degree + 1)]
    )


def brute_roots(f: PolyFq):
    field = f.field
    if field.degree == 1:
        elements = range(field.p)
    else:
        elements = [(x, y) for x in range(field.p) for y in range(field.p)]
    roots = []
    for e in elements:
        e = e if field.degree == 2 else e % field.p
        acc = field.zero()
        for c in reversed(f.coeffs):
            acc = field.add(field.mul(acc, e), c)
        if field.is_zero(acc):
            roots.append(e)
    return roots


class TestResidueField:
    def test_split_five(self):
        field = residue_field(gi("-1+2i"))
        assert field.p == 5 and field.degree == 1 and field.size == 5
        # the reduction map is authoritative: i maps to 3 mod -1+2i
        assert field.i_image == 3
        assert field.mul(field.i_image, field.i_image) == field.p - 1

    def test_conjugate_prime_swaps_root(self):
        field = residue_field(gi("-1-2i"))
        assert field.i_image == 2

    def test_inert_nine(self):
        field = residue_field(gi("-3"))
        assert field.p == 3 and field.degree == 2 and field.size == 9
        iota = field.i_image
        assert field.mul(iota, iota) == field.neg(field.one())

    def test_ramified_rejected(self):
        with pytest.raises(InputError):
            residue_field(gi("1+i"))

    def test_iota_squares_to_minus_one_everywhere(self):
        for pi in primes_up_to_norm(200):
            field = residue_field(pi.value)
            assert field.mul(field.i_image, field.i_image) == field.neg(field.one())


class TestReducePoly:
    def test_x2_plus_1_mod_split(self):
        f = reduce_poly(poly([1, 0, 1]), gi("-1+2i"))
        assert sorted(brute_roots(f)) == [2, 3]

    def test_x2_plus_1_mod_inert(self):
        field = residue_field(gi("-3"))
        f = reduce_poly(poly([1, 0, 1]), gi("-3"))
        roots = brute_roots(f)
        assert field.i_image in roots and field.neg(field.i_image) in roots

    def test_zero(self):
        assert reduce_poly(poly([]), gi("-3")).is_zero()

    def test_homomorphism_random(self, rng):
        for pi in (gi("-1+2i"), gi("-3"), gi("3+2i")):
            for _ in range(40):
                f, g = rand_zipoly(rng), rand_zipoly(rng)
                lhs = reduce_poly(f * g, pi)
                field = lhs.field
                rhs_f, rhs_g = reduce_poly(f, pi), reduce_poly(g, pi)
                prod = PolyFq.make(field, [field.zero()] * (len(rhs_f.coeffs) + len(rhs_g.coeffs)))
                acc = [field.zero()] * max(1, len(rhs_f.coeffs) + len(rhs_g.coeffs))
                for a_k, a in enumerate(rhs_f.coeffs):
                    for b_k, b in enumerate(rhs_g.coeffs):
                        acc[a_k + b_k] = field.add(acc[a_k + b_k], field.mul(a, b))
                assert lhs == PolyFq.make(field, acc)


class TestGcdSquarefree:
    def test_gcd_example(self):
        f = reduce_poly(poly([-1, 0, 1]), gi("-1+2i"))
        g = reduce_poly(poly([-1, 1]), gi("-1+2i"))
        got = poly_gcd(f, g)
        assert got == reduce_poly(poly([-1, 1]), gi("-1+2i"))

    def test_squarefree_examples(self):
        sq = poly([-1, 1]) * poly([-1, 1])
        assert not squarefree(reduce_poly(sq, gi("-1+2i")))
        assert squarefree(reduce_poly(poly([1, 0, 1]), gi("-1+2i")))

    def test_gcd_both_zero_rejected(self):
        z = reduce_poly(poly([]), gi("-3"))
        with pytest.raises(InputError):
            poly_gcd(z, z)


class TestSplitsCompletely:
    def test_examples(self):
        assert splits_completely(reduce_poly(poly([1, 0, 1]), gi("-1+2i")))
        assert not splits_completely(reduce_poly(poly([-2, 0, 1]), gi("-1+2i")))
        assert splits_completely(reduce_poly(poly([0, 1]), gi("-3")))

    def test_matches_brute_force_small_fields(self, rng):
        primes = [p for p in primes_up_to_norm(169) if p.norm <= 169]
        for pi in primes:
            cases = [reduce_poly(rand_zipoly(rng, 4), pi.value) for _ in range(8)]
            field = residue_field(pi.value)
            if field.degree == 1:
                cases.extend(planted_cases(field, rng, 3))
            for fbar in cases:
                if fbar.is_zero() or fbar.degree() < 1 or not fbar.is_monic():
                    continue
                roots = brute_roots(fbar)
                expected = len(set(map(tuple_key, roots))) == fbar.degree()
                assert splits_completely(fbar) == expected


def tuple_key(e):
    return e if isinstance(e, tuple) else (e,)


def planted(field, roots) -> PolyFq:
    """prod (X - r) over the field, multiplied out one factor at a time."""
    coeffs = [field.one()]
    for r in roots:
        shifted = [field.zero()] + coeffs
        for k, c in enumerate(coeffs):
            shifted[k] = field.sub(shifted[k], field.mul(r, c))
        coeffs = shifted
    return PolyFq.make(field, coeffs)


def planted_cases(field, rng, count):
    """Products of linear factors at a split prime: distinct roots (these
    split completely) and roots with one repeated (these do not)."""
    for _ in range(count):
        roots = rng.sample(range(field.p), rng.randint(1, min(6, field.p)))
        yield planted(field, roots)
        yield planted(field, roots + [roots[0]])


class TestHasRoot:
    def test_examples(self):
        assert has_root(reduce_poly(poly([-2, 0, 1]), gi("-3")))
        assert not has_root(reduce_poly(poly([-2, 0, 1]), gi("-1+2i")))
        assert has_root(reduce_poly(poly([gi("5"), 1]), gi("-3")))

    def test_matches_brute_force(self, rng):
        for pi in primes_up_to_norm(169):
            cases = [reduce_poly(rand_zipoly(rng, 4), pi.value) for _ in range(8)]
            field = residue_field(pi.value)
            if field.degree == 1:
                # a planted root times a random factor, and random sextics
                cases.extend(
                    PolyFq.make(field, ref_mul(g.coeffs, reduce_poly(rand_zipoly(rng, 4), pi.value).coeffs, field.p))
                    for g in planted_cases(field, rng, 2)
                )
                cases.extend(reduce_poly(rand_zipoly(rng, 6), pi.value) for _ in range(4))
            for fbar in cases:
                if fbar.is_zero():
                    continue
                assert has_root(fbar) == bool(brute_roots(fbar))


class TestFactorDegrees:
    def test_examples(self):
        assert factor_degrees(reduce_poly(poly([1, 0, 1]), gi("-1+2i"))) == (1, 1)
        assert factor_degrees(reduce_poly(poly([-2, 0, 1]), gi("-1+2i"))) == (2,)
        assert factor_degrees(reduce_poly(poly([-1, 0, 0, 0, 1]), gi("-1+2i"))) == (1, 1, 1, 1)

    def test_not_squarefree_rejected(self):
        sq = poly([-1, 1]) * poly([-1, 1])
        with pytest.raises(InputError):
            factor_degrees(reduce_poly(sq, gi("-1+2i")))

    def test_degrees_sum_to_degree(self, rng):
        for pi in (gi("-1+2i"), gi("-3"), gi("3+2i"), gi("-7")):
            for _ in range(20):
                f = rand_zipoly(rng, 6)
                fbar = reduce_poly(f, pi)
                if fbar.is_zero() or fbar.degree() < 1 or not fbar.is_monic():
                    continue
                if not squarefree(fbar):
                    continue
                assert sum(factor_degrees(fbar)) == fbar.degree()


# -- the packed split-prime kernel against a per-element schoolbook -------------


def ref_mul(a, b, p):
    out = [0] * max(0, len(a) + len(b) - 1)
    for j, x in enumerate(a):
        for k, y in enumerate(b):
            out[j + k] = (out[j + k] + x * y) % p
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def ref_mod(a, f, p):
    """a mod monic f, one coefficient at a time."""
    r = list(a)
    n = len(f) - 1
    while len(r) > n:
        q = r.pop()
        for k in range(n):
            r[len(r) - n + k] = (r[len(r) - n + k] - q * f[k]) % p
    while r and not r[-1]:
        r.pop()
    return tuple(r)


def ref_pow_mod(a, e, f, p):
    """a^e mod f, right to left over the bits of e."""
    result, base = ref_mod((1,), f, p), ref_mod(a, f, p)
    while e:
        if e & 1:
            result = ref_mod(ref_mul(result, base, p), f, p)
        base = ref_mod(ref_mul(base, base, p), f, p)
        e >>= 1
    return result


def rand_monic(rng, p, degree):
    return tuple(rng.randrange(p) for _ in range(degree)) + (1,)


class TestPackedKernel:
    @pytest.mark.parametrize("p", SMALL_SPLIT + MID_SPLIT + BIG_SPLIT)
    def test_x_power_matches_schoolbook(self, rng, p):
        for degree in range(1, 21):
            f = rand_monic(rng, p, degree)
            kernel = _PackedModulus(p, f)
            for e in (0, 1, degree - 1, degree, 2 * degree, p, rng.randrange(p * p)):
                assert kernel.pow_mod((0, 1), e) == ref_pow_mod((0, 1), e, f, p), (p, f, e)

    @pytest.mark.parametrize("p", SMALL_SPLIT + MID_SPLIT + BIG_SPLIT)
    def test_general_base_matches_schoolbook(self, rng, p):
        for degree in range(1, 21):
            f = rand_monic(rng, p, degree)
            a = ref_mod(tuple(rng.randrange(p) for _ in range(degree)), f, p)
            for e in (0, 1, 2, p):
                assert _PackedModulus(p, f).pow_mod(a, e) == ref_pow_mod(a, e, f, p), (p, f, a, e)

    @pytest.mark.parametrize("p", SMALL_SPLIT + MID_SPLIT + BIG_SPLIT)
    def test_slots_at_their_largest(self, p):
        # every coefficient p - 1 in the base and in X^n mod f drives the
        # products and the folded rows towards the (2n - 1)(p - 1)^2 bound
        for degree in range(1, 21):
            f = (1,) * (degree + 1)
            a = (p - 1,) * degree
            for e in (2, 3, p):
                assert _PackedModulus(p, f).pow_mod(a, e) == ref_pow_mod(a, e, f, p), (p, degree, e)

    @pytest.mark.parametrize("p", (5, 13, 30013, 2**31 - 1, 2**61 - 1))
    def test_lazy_slots_at_their_largest_over_runs_of_ones(self, rng, p):
        # X^n mod f and a with every coefficient p - 1 fill the slots up to
        # the width bound; along a run of 1-bits every step also multiplies,
        # by X (a shift and one more row) or by a, and the runs leave the
        # low slots unnormalised at either parity of the step count
        for n in range(1, 25):
            f = (1,) * (n + 1)
            kernel = _PackedModulus(p, f)
            for a in ((0, 1), (p - 1,) * n, ref_mod(tuple(rng.randrange(p) for _ in range(n)), f, p)):
                for e in (2**20 - 1, (2**13 - 1) << 11 | 2**9 - 1):
                    assert kernel.pow_mod(a, e) == ref_pow_mod(a, e, f, p), (p, n, a, e)

    def test_f_equal_to_x(self):
        kernel = _PackedModulus(13, (0, 1))
        assert kernel.pow_mod((0, 1), 0) == (1,)
        assert kernel.pow_mod((0, 1), 13) == ()
        f = reduce_poly(poly([0, 1]), gi("3+2i"))
        assert splits_completely(f) and has_root(f) and factor_degrees(f) == (1,)

    @pytest.mark.parametrize("p", SMALL_SPLIT + BIG_SPLIT)
    def test_degree_one(self, rng, p):
        for _ in range(5):
            c, e = rng.randrange(p), rng.randrange(p)
            # X = c mod X - c
            assert _PackedModulus(p, (-c % p, 1)).pow_mod((0, 1), e) == ref_mod((pow(c, e, p),), (-c % p, 1), p)
        assert _PackedModulus(p, (0, 1)).pow_mod((0, 1), 0) == (1,)

    def test_degree_at_least_p(self, rng):
        field = residue_field(gi("-1+2i"))  # F_5
        for _ in range(20):
            f = PolyFq.make(field, rand_monic(rng, 5, 20))
            assert _PackedModulus(5, f.coeffs).pow_mod((0, 1), 5) == (0, 0, 0, 0, 0, 1)
            assert not splits_completely(f)
            assert has_root(f) == bool(brute_roots(f))
        every_root_four_times = planted(field, list(range(5)) * 4)
        assert every_root_four_times.degree() == 20
        assert has_root(every_root_four_times)
        assert not splits_completely(every_root_four_times)
        assert not squarefree(every_root_four_times)
        assert splits_completely(planted(field, range(5)))

    @pytest.mark.parametrize("p", SMALL_SPLIT + MID_SPLIT)
    def test_repeated_root(self, p):
        field = residue_field(_split_prime_above(p))
        f = planted(field, [1, 1, 2])
        assert has_root(f)
        assert not squarefree(f)
        assert not splits_completely(f)
        assert splits_completely(planted(field, [1, 2]))

    def test_above_two_to_the_61(self, rng):
        p = BIG_SPLIT[0]
        field = residue_field(_split_prime_above(p))
        assert field.degree == 1 and field.p == p
        roots = [rng.randrange(p) for _ in range(8)]
        assert splits_completely(planted(field, roots))
        assert not splits_completely(planted(field, roots + [roots[3]]))
        assert factor_degrees(planted(field, roots)) == (1,) * 8
        # X^2 - r for a non-residue r has no root
        non_residue = next(r for r in range(2, 100) if pow(r, (p - 1) // 2, p) == p - 1)
        assert not has_root(PolyFq.make(field, (p - non_residue, 0, 1)))
        assert factor_degrees(PolyFq.make(field, (p - non_residue, 0, 1))) == (2,)

    def test_factor_degrees_of_the_degree_20_lemnatomic(self):
        # every factor of Lambda_beta mod pi has the degree of the class of
        # pi in (Z[i]/beta)^*, at split and at inert primes
        beta = gi("-3-4i")
        h = lemnatomic_exact(beta).coefficients
        group = unit_group(residue_ring(beta))
        seen = set()
        for pi in primes_up_to_norm(400):
            if divides(pi.value, beta):
                continue
            order = group.element_order(class_of(pi.value, group.ring, "primary"))
            assert factor_degrees(reduce_poly(h, pi)) == (order,) * (20 // order), pi
            seen.add((pi.kind, order))
        # the orders reached: every divisor of 20 at split primes, four of them at inert ones
        assert {order for kind, order in seen if kind == "split"} == {1, 2, 4, 5, 10, 20}
        assert {order for kind, order in seen if kind == "inert"} == {4, 5, 10, 20}


# -- split-prime gcd against a schoolbook Euclid -----------------------------------


def ref_rem(a, b, p):
    """a mod b over F_p, b not necessarily monic, by long division."""
    r = list(a)
    inv = pow(b[-1], -1, p)
    while len(r) >= len(b):
        q = r[-1] * inv % p
        shift = len(r) - len(b)
        for k, c in enumerate(b):
            r[shift + k] = (r[shift + k] - q * c) % p
        while r and not r[-1]:
            r.pop()
    return tuple(r)


def ref_gcd(a, b, p):
    """Monic gcd by the textbook loop (a, b) -> (b, a mod b)."""
    while b:
        a, b = b, ref_rem(a, b, p)
    inv = pow(a[-1], -1, p)
    return tuple(c * inv % p for c in a)


def rand_fp_poly(rng, p, degree):
    return tuple(rng.randrange(p) for _ in range(degree)) + (rng.randrange(1, p),)


class TestIntGcd:
    @pytest.mark.parametrize("p", SMALL_SPLIT + MID_SPLIT + BIG_SPLIT)
    def test_matches_schoolbook_euclid(self, rng, p):
        for _ in range(40):
            a = rand_fp_poly(rng, p, rng.randrange(0, 12))
            b = rand_fp_poly(rng, p, rng.randrange(0, 12))
            common = rand_fp_poly(rng, p, rng.randrange(0, 4))
            for x, y in ((a, b), (ref_mul(a, common, p), ref_mul(b, common, p))):
                assert _int_gcd(p, x, y) == ref_gcd(x, y, p), (p, x, y)
                assert _int_gcd(p, x, y)[-1] == 1

    @pytest.mark.parametrize("p", SMALL_SPLIT + BIG_SPLIT)
    def test_equal_degrees_and_divisors(self, rng, p):
        for degree in range(0, 10):
            a, b = rand_fp_poly(rng, p, degree), rand_fp_poly(rng, p, degree)
            assert _int_gcd(p, a, b) == ref_gcd(a, b, p), (p, a, b)
            multiple = ref_mul(a, rand_fp_poly(rng, p, rng.randrange(0, 5)), p)
            monic_a = ref_gcd(a, (), p)
            # one argument divides the other, in either order, and gcd(a, 0)
            assert _int_gcd(p, multiple, a) == monic_a
            assert _int_gcd(p, a, multiple) == monic_a
            assert _int_gcd(p, a, ()) == _int_gcd(p, (), a) == monic_a


# -- root_status and squarefree on f = X^k * g(X^e) against the X^q oracles ------

# split fields: p = 2 mod 3 (5, 17, 29, 41), p = 1 mod 3 (13, 37), p = 5 mod 8
# (5, 13, 29, 37) and p = 1 mod 8 (17, 41); inert fields of 9, 49 and 121 elements
DEFLATION_FIELDS = [residue_field(_split_prime_above(p)) for p in (5, 13, 17, 29, 37, 41)] + [
    residue_field(gi(p)) for p in ("-3", "-7", "-11")
]


def field_elements(field):
    if field.degree == 1:
        return list(range(field.p))
    return [(x, y) for x in range(field.p) for y in range(field.p)]


def inflate(field, g, e):
    """g(X^e) over the field."""
    cs = [field.zero()] * (e * (len(g) - 1) + 1)
    cs[::e] = g
    return PolyFq.make(field, cs)


def rand_deflation_g(field, rng, zero_root=False):
    """A monic g: planted roots (possibly repeated, 0 among them when
    zero_root) times a random monic factor of degree 0 to 2."""
    elements = field_elements(field)
    roots = [field.zero()] * zero_root + [rng.choice(elements) for _ in range(rng.randint(0, 3))]
    if roots and rng.random() < 0.3:
        roots.append(roots[0])
    extra = [rng.choice(elements) for _ in range(rng.randint(0, 2))] + [field.one()]
    g = planted(field, roots).coeffs
    out = [field.zero()] * (len(g) + len(extra) - 1)
    for j, x in enumerate(g):
        for k, y in enumerate(extra):
            out[j + k] = field.add(out[j + k], field.mul(x, y))
    return PolyFq.make(field, out).coeffs


def squarefree_reference(f):
    """gcd(f, f') on f as given, no deflation."""
    field = f.field
    d = PolyFq.make(field, [field.mul(field.from_int(k), c) for k, c in enumerate(f.coeffs)][1:])
    if d.is_zero():
        return f.degree() <= 0
    return poly_gcd(f, d).degree() == 0


def check_against_oracles(f):
    """root_status and squarefree agree with the X^q predicates, brute-force
    roots and gcd(f, f'); returns the status."""
    status = root_status(f)
    roots = brute_roots(f)
    assert (status == SPLITS) == splits_completely(f) == (len(set(map(tuple_key, roots))) == f.degree()), f
    assert (status >= ROOT) == has_root(f) == bool(roots), f
    assert squarefree(f) == squarefree_reference(f), f
    return status


class TestDeflation:
    @pytest.mark.parametrize("field", DEFLATION_FIELDS, ids=lambda F: f"q={F.size}")
    def test_random_inflated_polynomials(self, rng, field):
        seen = set()
        for e in (1, 2, 3, 4, 6, 8):
            for trial in range(12):
                g = rand_deflation_g(field, rng, zero_root=trial % 3 == 0)
                if len(g) < 2:
                    continue
                f = inflate(field, g, e)
                k, h, e_found = _deflate(field, f.coeffs)
                # f = X^k * h(X^e_found), h(0) != 0, e_found | q - 1
                assert h[0] != field.zero() and (field.size - 1) % e_found == 0
                assert f == PolyFq.make(field, [field.zero()] * k + list(inflate(field, h, e_found).coeffs))
                status = check_against_oracles(f)
                if g[0] == field.zero() and e >= 2:
                    assert status == ROOT and not squarefree(f)
                seen.add((e, g[0] == field.zero(), status))
        # every e meets g(0) = 0, and every status turns up
        assert {e for e, zero, _ in seen if zero} == {1, 2, 3, 4, 6, 8}
        assert {status for _, _, status in seen} == {NO_ROOT, ROOT, SPLITS}

    @pytest.mark.parametrize("field", DEFLATION_FIELDS, ids=lambda F: f"q={F.size}")
    def test_zero_constant_at_e_one(self, rng, field):
        # f = X * h with h(0) != 0 splits iff h does; X^2 | f has a double root
        elements = [c for c in field_elements(field) if c != field.zero()]
        for roots in ([], [rng.choice(elements)], rng.sample(elements, min(3, len(elements)))):
            h = planted(field, roots)
            x_h = PolyFq.make(field, (field.zero(),) + h.coeffs)
            assert check_against_oracles(x_h) == SPLITS
            assert check_against_oracles(PolyFq.make(field, (field.zero(),) + x_h.coeffs)) == ROOT
        assert check_against_oracles(PolyFq.make(field, (field.zero(),) * 3 + (field.one(),))) == ROOT
        # X * (X^2 + c) with a non-square c: a root at 0 only
        zero, one = field.zero(), field.one()
        c = next(c for c in elements if not brute_roots(PolyFq.make(field, (field.neg(c), zero, one))))
        f = PolyFq.make(field, (zero, field.neg(c), zero, one))
        assert _deflate(field, f.coeffs)[:2] == (1, (field.neg(c), one))
        assert check_against_oracles(f) == ROOT

    def test_coefficients_vanishing_mod_pi_raise_d(self, rng):
        # X^8 + pi*X^5 + a*X^4 + pi*X + b has d = 1 over Z[i], d = 4 mod pi
        for pi in (gi("-1+2i"), gi("-3"), gi("3+2i"), gi("-7"), gi("1+4i")):
            field = residue_field(pi)
            for _ in range(15):
                a, b = (GaussInt(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(2))
                h = PolyZi.make([b, pi, 0, 0, a, pi, 0, 0, 1])
                f = reduce_poly(h, pi)
                assert f.degree() == 8 and f.coeffs[1] == f.coeffs[5] == field.zero()
                k, g, e = _deflate(field, f.coeffs)
                if k == 0:
                    assert e in (4, 8) and len(g) == 8 // e + 1
                check_against_oracles(f)

    @pytest.mark.parametrize(
        "p, e, e_found",
        # e = 3 at p = 2 mod 3 and e = 8 at p = 5 mod 8: e does not divide p - 1
        [(5, 3, 1), (17, 3, 1), (29, 3, 1), (5, 8, 4), (13, 8, 4), (29, 8, 4), (37, 8, 4), (17, 8, 8)],
    )
    def test_e_not_dividing_q_minus_one(self, rng, p, e, e_found):
        field = residue_field(_split_prime_above(p))
        for _ in range(20):
            g = rand_deflation_g(field, rng)
            if len(g) < 2 or g[0] == field.zero():
                continue
            f = inflate(field, g, e)
            assert _deflate(field, f.coeffs)[2] == e_found
            check_against_oracles(f)

    def test_inert_nine_with_e_three(self, rng):
        field = residue_field(gi("-3"))  # q - 1 = 8
        for _ in range(20):
            g = rand_deflation_g(field, rng)
            if len(g) < 2 or g[0] == field.zero():
                continue
            f = inflate(field, g, 3)
            assert _deflate(field, f.coeffs)[2] == 1
            check_against_oracles(f)

    def test_linear_g_quartic_lemnatomic(self):
        # Lambda_{-1+2i} = X^4 + (-1+2i): g = Y + (-1+2i) at every prime
        h = lemnatomic_exact(gi("-1+2i")).coefficients
        assert h.degree() == 4
        statuses = set()
        for pi in primes_up_to_norm(400):
            f = reduce_poly(h, pi)
            k, g, e = _deflate(f.field, f.coeffs)
            if k:
                assert divides(pi.value, gi("-1+2i"))
                continue
            assert e == 4 and len(g) == 2
            statuses.add(check_against_oracles(f))
        assert statuses == {NO_ROOT, SPLITS}
