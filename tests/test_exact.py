"""Exact symbolic pipeline: the sl function field, multiplication maps,
all-torsion polynomials, and lemnatomic polynomials by divisor recovery."""

import time

import pytest
from mpmath import mp, mpc, mpf

from conftest import CORPUS_ALL_TORSION, CORPUS_BETAS, gi, sparse_poly
from lemnatomic import exact
from lemnatomic.errors import InputError, InternalInconsistency
from lemnatomic.exact import (
    _GCD_PRIMES,
    LemnatomicRecord,
    PolyQ,
    SlFieldElement,
    _euclid_mod,
    _mod_image,
    _zi_gcd_cofactors,
    all_torsion_poly,
    divisors_up_to_units,
    lemnatomic_exact,
    mult_map,
    record_checksum,
)
from lemnatomic.gaussint import UNITS, _is_rational_prime
from lemnatomic.lemniscate import _sl_raw, big_complex, sl_eval, torsion_values
from lemnatomic.residue import phi_norm
from lemnatomic.zipoly import PolyZi, exact_divide, poly

S = PolyQ.make([0, 1])
ZERO_Q = PolyQ.make([])
ONE_Q = PolyQ.make([1])


def field_elem(p, q, d):
    return SlFieldElement.make(PolyQ.make(p), PolyQ.make(q), PolyQ.make(d))


def eval_polyq(f: PolyQ, z: mpc) -> mpc:
    acc = mpc(0)
    for c in reversed(f.coeffs):
        acc = acc * z + mpc(
            mpf(c.re.numerator) / c.re.denominator, mpf(c.im.numerator) / c.im.denominator
        )
    return acc


def eval_field_elem(e: SlFieldElement, s: mpc, c: mpc) -> mpc:
    return (eval_polyq(e.p, s) + eval_polyq(e.q, s) * c) / eval_polyq(e.d, s)


class TestSlFieldElement:
    def test_field_axioms_sampled(self):
        a = field_elem([0, 1], [2], [1, 0, 3])
        b = field_elem([gi("1+i")], [0, 1], [1])
        c = field_elem([1, 1], [0, 0, 2], [0, 0, 0, 1, 1])
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero()
        assert a * a.inverse() == field_elem([1], [0], [1])
        assert (a / b) * b == a

    def test_c_squared_collapses(self):
        c_elem = field_elem([0], [1], [1])
        w_elem = field_elem([1, 0, 0, 0, -1], [0], [1])
        assert c_elem * c_elem == w_elem

    def test_zero_denominator_rejected(self):
        with pytest.raises(InputError):
            field_elem([1], [0], [0])

    def test_derivation_product_rule(self):
        a = field_elem([0, 1], [1], [1, 0, 1])
        b = field_elem([2, 0, 1], [0, 3], [1, 1])
        lhs = (a * b).derivation()
        rhs = a.derivation() * b + a * b.derivation()
        assert lhs == rhs

    def test_derivation_of_s_is_c(self):
        s_elem = field_elem([0, 1], [0], [1])
        assert s_elem.derivation() == field_elem([0], [1], [1])

    def test_derivation_of_c_is_minus_two_s_cubed(self):
        c_elem = field_elem([0], [1], [1])
        assert c_elem.derivation() == field_elem([0, 0, 0, -2], [0], [1])

    def test_subst_is_involution_four_times(self):
        a = field_elem([1, 2, 3], [0, 1], [1, 0, 5])
        out = a
        for _ in range(4):
            out = out.subst_is()
        assert out == a


def assert_gcd(a: PolyZi, b: PolyZi, want: PolyZi) -> None:
    """The modular gcd of a and b is want up to a unit, with exact cofactors."""
    g, qa, qb = _zi_gcd_cofactors(a, b)
    assert any(g == want * u for u in UNITS), f"gcd {g}, want {want}"
    if not g.is_zero():
        assert g * qa == a and g * qb == b


class TestModularGcd:
    def test_stored_primes_split_with_square_roots_of_minus_one(self):
        assert len(_GCD_PRIMES) >= 2
        for p, iota in _GCD_PRIMES:
            assert p % 4 == 1 and _is_rational_prime(p)
            assert (iota * iota + 1) % p == 0

    def test_planted_factor_with_content(self):
        # content (1+i)*3 on the planted factor, leading coefficient -4+3i
        primitive = poly([gi("1+i"), 7, gi("-2i"), gi("-4+3i")])
        planted = primitive * gi("3+3i")
        a = planted * poly([gi("2-i"), 0, gi("5+i")]) * gi("2+i")
        b = planted * poly([3, gi("-1+4i"), 1, gi("-2")]) * 5
        assert_gcd(a, b, primitive)
        assert_gcd(b, a, primitive)

    def test_coprime_pair(self):
        a = poly([gi("i"), 1]) * poly([-2, 1]) * poly([gi("1+i"), 3])
        b = poly([gi("-i"), 1]) * poly([2, 1]) * poly([-3, 1])
        assert_gcd(a, b, poly([1]))

    def test_zero_and_constant_inputs(self):
        b = poly([gi("2+2i"), 0, gi("2+2i")])  # content 2+2i
        assert_gcd(poly([]), b, poly([1, 0, 1]))
        assert_gcd(b, poly([]), poly([1, 0, 1]))
        assert_gcd(poly([]), poly([]), poly([]))
        assert_gcd(poly([6]), b, poly([1]))
        assert_gcd(b, poly([gi("3-i")]), poly([1]))

    def test_prime_dividing_a_leading_coefficient_is_skipped(self):
        # modulo the first prime the common factor p*X + 1 becomes 1, so an
        # image there would wrongly certify the pair coprime
        p = _GCD_PRIMES[0][0]
        common = poly([1, p])
        assert_gcd(common * poly([2, 1]), common * poly([3, 1]), common)

    def test_unlucky_prime_is_discarded(self, monkeypatch):
        common = poly([gi("2+i"), gi("1-3i"), gi("3+2i")])
        a = common * poly([5, 1])
        b = common * poly([0, 1])
        # 5 = 1 (mod 4) with 2^2 = -1 (mod 5); modulo 5 both X + 5 and X become
        # X, so the gcd degree jumps by one in both images
        for root in (2, 3):
            image = _euclid_mod(_mod_image(a, 5, root), _mod_image(b, 5, root), 5)
            assert len(image) - 1 == common.degree() + 1
        monkeypatch.setattr(exact, "_GCD_PRIMES", ((5, 2),) + _GCD_PRIMES)
        assert_gcd(a, b, common)


class TestMultMap:
    def test_identity(self):
        assert mult_map(gi("1")) == field_elem([0, 1], [0], [1])

    def test_times_i(self):
        assert mult_map(gi("i")) == field_elem([0, gi("i")], [0], [1])

    def test_doubling(self):
        assert mult_map(gi("2")) == field_elem([0], [0, 2], [1, 0, 0, 0, 1])

    def test_zero_rejected(self):
        with pytest.raises(InputError):
            mult_map(gi("0"))

    def test_odd_beta_pure_s_and_degree(self):
        for b in ("-3", "-1+2i", "-1-2i", "1+2i", "3+2i"):
            beta = gi(b)
            e = mult_map(beta)
            assert e.q.is_zero()  # no c-component for odd beta
            assert e.p.degree() == beta.norm()
            assert e.d.degree() == beta.norm() - 1
            # odd function of s: numerator has only odd powers, denominator only even
            assert all(c.is_zero() for k, c in enumerate(e.p.coeffs) if k % 2 == 0)
            assert all(c.is_zero() for k, c in enumerate(e.d.coeffs) if k % 2 == 1)

    @pytest.mark.parametrize("b", ["2", "i", "-3", "-1+2i", "2+i", "3-2i", "-3-4i"])
    def test_matches_numeric_evaluation(self, b, rng):
        beta = gi(b)
        e = mult_map(beta)
        with mp.workprec(300):
            for _ in range(5):
                z = big_complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), 256)
                pair = sl_eval(z)
                s, c = pair.s.to_mpc(), pair.c.to_mpc()
                # Reference via the reduction-free evaluator: sl_eval reduces
                # modulo (1+i)*omega*Z[i] first, which shifts large arguments
                # by quasi-periods (only 2(1+i)*omega*Z[i] are true periods).
                bz = z.to_mpc() * mpc(beta.re, beta.im)
                want = _sl_raw(bz, 280)[0]
                got = eval_field_elem(e, s, c)
                assert abs(got - want) < mpf(2) ** -180


class TestDivisors:
    def test_prime(self):
        assert divisors_up_to_units(gi("-3")) == [gi("1"), gi("-3")]

    def test_prime_square(self):
        assert divisors_up_to_units(gi("-3-4i")) == [gi("1"), gi("-1+2i"), gi("-3-4i")]

    def test_two_primes(self):
        divs = divisors_up_to_units(gi("3-6i"))
        assert len(divs) == 4
        assert divs[0] == gi("1") and divs[-1] == gi("3-6i")
        assert gi("-3") in divs and gi("-1+2i") in divs

    def test_sorted_by_norm(self):
        divs = divisors_up_to_units(gi("3-6i") * gi("-1+2i"))
        norms = [d.norm() for d in divs]
        assert norms == sorted(norms)


class TestAllTorsionPoly:
    def test_degree_five(self):
        t = all_torsion_poly(gi("-1+2i"))
        assert t.degree() == 5
        assert t == sparse_poly(*CORPUS_ALL_TORSION["-1+2i"])

    def test_vanishes_at_zero(self):
        for b in ("-3", "-1+2i", "-3-4i"):
            assert all_torsion_poly(gi(b))[0].is_zero()

    def test_t_minus_three_frozen(self):
        assert all_torsion_poly(gi("-3")) == sparse_poly(*CORPUS_ALL_TORSION["-3"])

    def test_roots_match_numeric_torsion_values(self):
        t = all_torsion_poly(gi("-3"))
        vals = torsion_values(gi("-3"), 256)
        with mp.workprec(280):
            for v in vals.values():
                z = v.to_mpc()
                acc = mpc(0)
                for c in reversed(t.coeffs):
                    acc = acc * z + mpc(c.re, c.im)
                assert abs(acc) < mpf(2) ** -200

    def test_unit_rejected(self):
        with pytest.raises(InputError):
            all_torsion_poly(gi("1"))


class TestLemnatomicExact:
    def test_corpus_frozen_values(self, corpus_polys):
        for beta, want in corpus_polys.items():
            record = lemnatomic_exact(beta)
            assert record.coefficients == want
            assert record.degree == phi_norm(beta)
            assert record.method == "exact"
            assert record.precision_bits == 0

    def test_torsion_divided_by_all_lemnatomics_leaves_x(self):
        for beta in CORPUS_BETAS:
            quotient = all_torsion_poly(beta)
            for d in divisors_up_to_units(beta):
                if d == gi("1"):
                    continue
                quotient = exact_divide(quotient, lemnatomic_exact(d).coefficients)
            assert quotient == poly([0, 1])  # what remains is Lambda_1 = X

    def test_product_identity_exact(self):
        for beta in CORPUS_BETAS:
            product = poly([0, 1])  # Lambda_1 := X
            for d in divisors_up_to_units(beta):
                if d == gi("1"):
                    continue
                product = product * lemnatomic_exact(d).coefficients
            assert product == all_torsion_poly(beta)

    def test_x4_structure(self):
        for beta in CORPUS_BETAS:
            f = lemnatomic_exact(beta).coefficients
            for k, c in enumerate(f.coeffs):
                if k % 4 != 0:
                    assert c.is_zero()

    def test_degree_sum_identity(self):
        for beta in CORPUS_BETAS:
            assert sum(phi_norm(d) for d in divisors_up_to_units(beta)) == beta.norm()

    def test_associate_input_normalized(self):
        assert lemnatomic_exact(gi("3")).coefficients == lemnatomic_exact(gi("-3")).coefficients

    def test_unit_and_even_rejected(self):
        with pytest.raises(InputError):
            lemnatomic_exact(gi("i"))
        with pytest.raises(InputError):
            lemnatomic_exact(gi("2"))


def test_exact_route_reaches_norm_269():
    """beta = 13 (N = 169) and 13+10i (N = 269) by the exact route match the
    numeric route's checksums, under a minute."""
    want = {
        "13": "3fa4d746b17eeaeddadb473ee47deb91e17f09ab3798e066581e4e7c38c09a95",
        "13+10i": "21b247eb2901d6c1a832fe5b4f7b31075aa9300070640a383bf66985bff6fc98",
    }
    t0 = time.perf_counter()
    for b, checksum in want.items():
        assert lemnatomic_exact(gi(b)).checksum == checksum
    assert time.perf_counter() - t0 < 60.0


class TestLemnatomicRecord:
    def test_checksum_deterministic(self):
        a = lemnatomic_exact(gi("-3"))
        b = lemnatomic_exact(gi("-3"))
        assert a.checksum == b.checksum == record_checksum(a.beta, a.coefficients)
        assert len(a.checksum) == 64

    def test_checksum_depends_on_beta_and_coeffs(self):
        a = lemnatomic_exact(gi("-1+2i"))
        b = lemnatomic_exact(gi("-1-2i"))
        assert a.checksum != b.checksum

    def test_build_rejects_bad_method(self):
        rec = lemnatomic_exact(gi("-3"))
        with pytest.raises(InputError):
            LemnatomicRecord.build(rec.beta, rec.coefficients, "guess", 0)

    def test_build_rejects_wrong_degree(self):
        with pytest.raises(InternalInconsistency):
            LemnatomicRecord.build(gi("-3"), poly([1, 1]), "exact", 0)

    def test_build_rejects_nonmonic(self):
        bad = PolyZi.make([gi("-3")] + [gi("0")] * 7 + [gi("2")])
        with pytest.raises(InternalInconsistency):
            LemnatomicRecord.build(gi("-3"), bad, "exact", 0)
