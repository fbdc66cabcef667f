"""Exact symbolic pipeline: graded arithmetic in the sl function field,
multiplication maps, all-torsion polynomials, and lemnatomic polynomials by
divisor recovery."""

import time
from dataclasses import replace

import pytest
from mpmath import mp, mpc, mpf

from conftest import CORPUS_ALL_TORSION, CORPUS_BETAS, gi, sparse_poly
from lemnatomic import exact
from lemnatomic.errors import InputError, InternalInconsistency
from lemnatomic.exact import (
    _GCD_PRIMES,
    LemnatomicRecord,
    _g_add,
    _g_deriv,
    _g_mul,
    _g_subst_is,
    _mod_image,
    _zi_gcd_cofactors,
    all_torsion_poly,
    divisors_up_to_units,
    lemnatomic_exact,
    mult_map,
    record_checksum,
)
from lemnatomic.gaussint import I, UNITS, GaussInt, _is_rational_prime, factor, primary_normalize
from lemnatomic.gfq import _int_gcd
from lemnatomic.lemniscate import _sl_raw, big_complex, sl_eval, torsion_values
from lemnatomic.residue import phi_norm
from lemnatomic.zipoly import PolyZi, discriminant, exact_divide, poly

S = poly([0, 1])
ONE_POLY = poly([1])
W = poly([1, 0, 0, 0, -1])


def eval_poly(f: PolyZi, z: mpc) -> mpc:
    acc = mpc(0)
    for c in reversed(f.coeffs):
        acc = acc * z + mpc(c.re, c.im)
    return acc


def random_graded(rng, parity: int):
    coeffs = [GaussInt(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(rng.randint(1, 6))]
    return (poly(coeffs + [GaussInt(rng.randint(1, 9), rng.randint(-9, 9))]), parity)


class TestGradedArithmetic:
    """The derivation D(s) = c, D(c) = -2 s^3 and the relation c^2 = W = 1 - s^4
    on graded expressions (poly, parity): poly * c^parity."""

    def test_derivation_of_s_is_c(self):
        assert _g_deriv((S, 0)) == (ONE_POLY, 1)

    def test_derivation_of_c_is_minus_two_s_cubed(self):
        assert _g_deriv((ONE_POLY, 1)) == (poly([0, 0, 0, -2]), 0)

    def test_c_squared_collapses(self):
        assert _g_mul((ONE_POLY, 1), (ONE_POLY, 1)) == (W, 0)

    @pytest.mark.parametrize(
        "parities", [(0, 0), (0, 1), (1, 0), (1, 1)], ids=["s-s", "s-c", "c-s", "c-c"]
    )
    def test_derivation_product_rule(self, parities, rng):
        for _ in range(10):
            a = random_graded(rng, parities[0])
            b = random_graded(rng, parities[1])
            lhs = _g_deriv(_g_mul(a, b))
            rhs = _g_add(_g_mul(_g_deriv(a), b), _g_mul(a, _g_deriv(b)))
            assert lhs == rhs

    def test_subst_is_four_times_is_identity(self, rng):
        for parity in (0, 1):
            a = random_graded(rng, parity)
            out = a
            for _ in range(4):
                out = _g_subst_is(out)
            assert out == a
            assert _g_subst_is(a) != a


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
            image = _int_gcd(5, _mod_image(a, 5, root), _mod_image(b, 5, root))
            assert len(image) - 1 == common.degree() + 1
        monkeypatch.setattr(exact, "_GCD_PRIMES", ((5, 2),) + _GCD_PRIMES)
        assert_gcd(a, b, common)


class TestMultMap:
    def test_identity(self):
        assert mult_map(gi("1")) == ((S, 0), ONE_POLY)

    def test_times_i(self):
        assert mult_map(gi("i")) == ((poly([0, gi("i")]), 0), ONE_POLY)

    def test_doubling(self):
        # sl(2z) = 2 s c / (1 + s^4)
        assert mult_map(gi("2")) == ((poly([0, 2]), 1), poly([1, 0, 0, 0, 1]))

    def test_zero_rejected(self):
        with pytest.raises(InputError):
            mult_map(gi("0"))

    def test_odd_beta_pure_s_and_degree(self):
        for b in ("-3", "-1+2i", "-1-2i", "1+2i", "3+2i"):
            beta = gi(b)
            (n, parity), d = mult_map(beta)
            assert parity == 0  # no c-component for odd beta
            assert n.degree() == beta.norm()
            assert d.degree() == beta.norm() - 1
            # odd function of s: numerator has only odd powers, denominator only even
            assert all(c.is_zero() for k, c in enumerate(n.coeffs) if k % 2 == 0)
            assert all(c.is_zero() for k, c in enumerate(d.coeffs) if k % 2 == 1)

    @pytest.mark.parametrize("b", ["2", "i", "-3", "-1+2i", "2+i", "3-2i", "-3-4i"])
    def test_matches_numeric_evaluation(self, b, rng):
        beta = gi(b)
        (n, parity), d = mult_map(beta)
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
                got = eval_poly(n, s) * c**parity / eval_poly(d, s)
                assert abs(got - want) < mpf(2) ** -180


# Lambda_beta checksums from the exact route, matched by the numeric route
FROZEN_CHECKSUMS = {
    "-3": "b4fd06d303e256e44d9c428f470e8717e1ab2e77b51310e8266973104afe27f2",
    "5+4i": "e0ef3410300d53f9353acf8722e784f4ea2b555276c94fb12338703d53c45b06",
    "3-6i": "eca39b3f6473d2391786a8d300579282de09ddddfac6f99977600c40c9d904ea",
    "-11": "395e67da1f490e9c4bc59f03764aa93e666aeb795e0bd683254f54cb451c981d",
}
S5 = poly([0, 0, 0, 0, 0, 1])
CORRUPTIONS = {
    "c to -c": lambda p: replace(p, c=(-p.c[0], p.c[1])),
    "c to ic": lambda p: replace(p, c=(p.c[0] * I, p.c[1])),
    "c to 2c": lambda p: replace(p, c=(p.c[0] * 2, p.c[1])),
    "a to -a": lambda p: replace(p, a=(-p.a[0], p.a[1])),
    "s to is": exact._subst_pair,
    "a plus s^5": lambda p: replace(p, a=(p.a[0] + S5, p.a[1])),
    "b plus s^5": lambda p: replace(p, b=p.b + S5),
}
FAULT_STEPS = 6


def clear_memos():
    exact._integer_pair.cache_clear()
    exact._lemnatomic_poly.cache_clear()


class TestChainVerifier:
    """mult_map certifies the finished chain by the first integral
    (sl')^2 = 1 - sl^4 with the initial conditions N(0) = 0, B(0) != 0, and
    for odd beta by B = unit * s^N(beta) N(1/s)."""

    @pytest.fixture
    def cold_memos(self):
        clear_memos()
        yield
        clear_memos()  # corrupted pairs must not outlive the test

    @pytest.mark.parametrize("kind", list(CORRUPTIONS))
    def test_corrupted_chain_step_is_caught_or_harmless(self, kind, cold_memos, monkeypatch):
        corrupt = CORRUPTIONS[kind]
        real = exact._pair_sum
        caught = 0
        for b, checksum in FROZEN_CHECKSUMS.items():
            for step in range(FAULT_STEPS):
                calls = []

                def faulty(pa, pb, total):
                    calls.append(total)
                    result = real(pa, pb, total)
                    return corrupt(result) if len(calls) == step + 1 else result

                monkeypatch.setattr(exact, "_pair_sum", faulty)
                clear_memos()
                try:
                    record = lemnatomic_exact(gi(b))
                except InternalInconsistency:
                    caught += 1
                    continue
                assert record.checksum == checksum, f"{kind} at step {step} of {b} went undetected"
        assert caught, f"{kind} was never caught"

    def test_swapped_pair_fails_only_the_initial_condition(self):
        # i B / N = i / sl(beta z) satisfies the first integral as well
        beta = gi("-3")
        (n, parity), b = mult_map(beta)
        num, den = b * I, n
        m = num.derivative() * den - num * den.derivative()
        num2, den2 = num * num, den * den
        assert m * m * W == (den2 * den2 - num2 * num2) * (beta * beta)
        with pytest.raises(InternalInconsistency, match="initial condition"):
            exact._verify_first_integral((num, parity), den, beta)

    @pytest.mark.parametrize(
        "b", ["-1+2i", "-1-2i", "-3", "3", "3i", "-3-4i", "3-6i", "5+4i", "9", "-7", "-11", "11-2i"]
    )
    def test_denominator_is_a_unit_times_the_reversed_numerator(self, b):
        beta = gi(b)
        (n, _), d = mult_map(beta)
        rev = PolyZi.make([0] * (beta.norm() - n.degree()) + list(reversed(n.coeffs)))
        assert any(d == rev * u for u in UNITS)

    def test_denominator_not_reversed_numerator_rejected(self):
        beta = gi("-3")
        (n, parity), d = mult_map(beta)
        with pytest.raises(InternalInconsistency, match="reversed numerator"):
            exact._verify_first_integral((n, parity), d + poly([0, 0, 1]), beta)


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


LAMBDA_AT_ZERO_BETAS = (
    "-1+2i", "-1-2i", "-3", "-3-4i", "3-6i", "9", "-11", "11-2i", "-7", "5+4i", "-1+4i",
)


@pytest.mark.parametrize("b", LAMBDA_AT_ZERO_BETAS)
def test_lambda_at_zero(b):
    """Lambda_beta(0) is the primary prime pi when beta is a unit times pi^k,
    and 1 when beta has two distinct prime factors."""
    beta = gi(b)
    _, facs = factor(beta)
    want = primary_normalize(facs[0][0].value)[1] if len(facs) == 1 else gi("1")
    assert lemnatomic_exact(beta).coefficients[0] == want


@pytest.mark.parametrize("b", ["-1+2i", "-3", "-3-4i", "3-6i"])
def test_discriminant_primes(b):
    """The prime factors of disc(Lambda_beta) are exactly 1+i and the primes
    dividing beta."""
    beta = gi(b)
    disc = discriminant(lemnatomic_exact(beta).coefficients)
    want = {gi("1+i")} | {prime.value for prime, _ in factor(beta)[1]}
    assert {prime.value for prime, _ in factor(disc)[1]} == want


class TestMemos:
    @pytest.fixture(autouse=True)
    def cold_memos(self):
        exact._integer_pair.cache_clear()
        exact._lemnatomic_poly.cache_clear()

    def test_memos_are_bounded_lru_caches(self):
        for memo in (exact._integer_pair, exact._lemnatomic_poly):
            maxsize = memo.cache_info().maxsize
            assert maxsize is not None and maxsize > 0

    def test_associate_reuses_lemnatomic_memo(self, monkeypatch):
        calls = []
        real = exact.mult_map

        def counting(beta):
            calls.append(beta)
            return real(beta)

        monkeypatch.setattr(exact, "mult_map", counting)
        lemnatomic_exact(gi("-3"))
        assert calls
        calls.clear()
        lemnatomic_exact(gi("3"))
        assert calls == []

    def test_integer_pair_of_minus_11_reused_by_11_minus_2i(self, monkeypatch):
        lemnatomic_exact(gi("-11"))
        hits = exact._integer_pair.cache_info().hits
        totals = []
        real = exact._pair_sum

        def recording(pa, pb, total):
            totals.append(total)
            return real(pa, pb, total)

        monkeypatch.setattr(exact, "_pair_sum", recording)
        lemnatomic_exact(gi("11-2i"))
        assert exact._integer_pair.cache_info().hits > hits
        assert gi("11-2i") in totals and gi("11") not in totals  # sl(11 z) not rebuilt


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

    @pytest.mark.parametrize(
        "b, constant", [("-3", "3"), ("-3", "0"), ("-3-4i", "-1-2i"), ("3-6i", "-3"), ("3-6i", "0")]
    )
    def test_build_rejects_wrong_constant_term(self, b, constant):
        good = lemnatomic_exact(gi(b)).coefficients
        bad = PolyZi.make([gi(constant)] + list(good.coeffs[1:]))
        for method in ("exact", "numeric"):
            with pytest.raises(InternalInconsistency, match="constant term"):
                LemnatomicRecord.build(gi(b), bad, method, 0)
