"""Exact Z[i] polynomials: arithmetic, discriminant/resultant, exact division,
JSON round-trips, the JSON encoder, and the discriminant-vs-squarefree bridge.

The resultant's independent reference lives here: the Sylvester matrix and
a Bareiss determinant over Z[i], itself checked against cofactor expansion."""

import hashlib
from dataclasses import dataclass

import pytest

from conftest import gi
from lemnatomic.errors import InputError, NotDivisible, ParseError
from lemnatomic.exact import lemnatomic_exact
from lemnatomic import zipoly
from lemnatomic.gaussint import (
    GaussInt,
    GaussPrime,
    _is_rational_prime,
    _sqrt_minus_one,
    divides,
    primes_up_to_norm,
)
from lemnatomic.gfq import reduce_poly, squarefree
from lemnatomic.zipoly import (
    PolyZi,
    discriminant,
    exact_divide,
    from_json_dict,
    kronecker_mul,
    pack_slots,
    poly,
    resultant,
    reverse_slots,
    to_json,
    to_json_dict,
)

X = poly([0, 1])
ONE = poly([1])


def rand_poly(rng, max_deg=6, span=12):
    degree = rng.randint(0, max_deg)
    return PolyZi.make(
        [GaussInt(rng.randint(-span, span), rng.randint(-span, span)) for _ in range(degree + 1)]
    )


class TestArithmetic:
    def test_difference_of_squares(self):
        assert poly([1, 1]) * poly([-1, 1]) == poly([-1, 0, 1])

    def test_derivative(self):
        f = poly([0, gi("2+i"), 0, 0, 1])  # X^4 + (2+i)X
        assert f.derivative() == poly([gi("2+i"), 0, 0, 4])

    def test_evaluate_at_i(self):
        assert poly([1, 0, 1]).evaluate(gi("i")) == gi("0")

    def test_ring_axioms_random(self, rng):
        for _ in range(60):
            f, g, h = rand_poly(rng), rand_poly(rng), rand_poly(rng)
            assert (f + g) + h == f + (g + h)
            assert f + g == g + f
            assert (f * g) * h == f * (g * h)
            assert f * g == g * f
            assert f * (g + h) == f * g + f * h

    def test_product_rule_random(self, rng):
        for _ in range(60):
            f, g = rand_poly(rng), rand_poly(rng)
            lhs = (f * g).derivative()
            rhs = f.derivative() * g + f * g.derivative()
            assert lhs == rhs


def schoolbook_mul(f: PolyZi, g: PolyZi) -> PolyZi:
    """Reference product: every coefficient pair multiplied in Z[i]."""
    if f.is_zero() or g.is_zero():
        return PolyZi.make([])
    out = [GaussInt(0, 0)] * (len(f.coeffs) + len(g.coeffs) - 1)
    for j, a in enumerate(f.coeffs):
        for k, b in enumerate(g.coeffs):
            out[j + k] = out[j + k] + a * b
    return PolyZi.make(out)


def schoolbook_lists(a: tuple, b: tuple) -> tuple:
    """Reference list product: every slot kept, leading zeros included."""
    n = len(a[0]) + len(b[0]) - 1
    re, im = [0] * n, [0] * n
    for j, (ar, ai) in enumerate(zip(*a)):
        for k, (br, bi) in enumerate(zip(*b)):
            re[j + k] += ar * br - ai * bi
            im[j + k] += ar * bi + ai * br
    return re, im


class TestKroneckerMultiply:
    """PolyZi.__mul__ and kronecker_mul pack coefficients into big integers;
    the schoolbook products above are the reference."""

    @staticmethod
    def random_lists(rng):
        """Signed (re, im) lists: length 1 often, zero coefficients at either
        end, and real and imaginary operands, which take fewer products."""
        length = rng.choice([1, 1, 2, 3, rng.randint(4, 40)])
        bits = rng.choice([1, 3, 30, 64, 200, 333])
        re = [rng.randint(-(2**bits), 2**bits) for _ in range(length)]
        im = [rng.randint(-(2**bits), 2**bits) for _ in range(length)]
        for end in rng.sample((0, -1, None, None), 2):
            if end is not None:
                re[end] = im[end] = 0
        shape = rng.choice(["complex", "complex", "real", "imaginary"])
        if shape == "real":
            im = [0] * length
        elif shape == "imaginary":
            re = [0] * length
        return re, im

    def test_list_product_matches_schoolbook_random(self, rng):
        for _ in range(300):
            a, b = self.random_lists(rng), self.random_lists(rng)
            assert kronecker_mul(a, b) == schoolbook_lists(a, b)
            square = schoolbook_lists(a, a)
            assert kronecker_mul(a, a) == square  # the same object: squares
            assert kronecker_mul(a, (list(a[0]), list(a[1]))) == square

    def test_list_product_edge_cases(self):
        big = 2**250 + 12345
        cases = [
            (([0], [0]), ([1, 2, 3], [0, -1, 0])),
            (([3], [-4]), ([-1, 0, 5], [1, 0, 0])),
            (([-big], [big]), ([big, -big], [-1, -big])),
            (([0, 0, 7], [0, 0, 0]), ([0, -7], [0, 0])),
            (([-1] * 64, [-1] * 64), ([-1] * 64, [-1] * 64)),
            (([5, 0, 0], [0, 0, 0]), ([0, 0, 2], [0, 0, -3])),
        ]
        for a, b in cases:
            assert kronecker_mul(a, b) == schoolbook_lists(a, b)
            assert kronecker_mul(b, a) == schoolbook_lists(b, a)
            assert kronecker_mul(a, a) == schoolbook_lists(a, a)

    def test_reverse_slots(self, rng):
        for nbytes in (1, 2, 7, 40):
            top = 2 ** (8 * nbytes - 1) - 1
            for count in (1, 2, 3, 50):
                values = [rng.choice([-top, top, 0, rng.randint(-top, top)]) for _ in range(count)]
                packed = pack_slots(values, nbytes)
                assert reverse_slots(packed, count, nbytes) == pack_slots(values[::-1], nbytes)

    @staticmethod
    def random_pair(rng):
        def one():
            length = rng.choice([0, 1, 1, 2, 3, rng.randint(4, 40)])
            bits = rng.choice([1, 3, 30, 64, 200, 333])
            return PolyZi.make(
                [GaussInt(rng.randint(-(2**bits), 2**bits), rng.randint(-(2**bits), 2**bits)) for _ in range(length)]
            )

        return one(), one()

    def test_matches_schoolbook_random(self, rng):
        for _ in range(300):
            f, g = self.random_pair(rng)
            assert f * g == schoolbook_mul(f, g)
            assert f * f == schoolbook_mul(f, f)  # a square packs once

    def test_edge_cases(self):
        big = 2**250 + 12345
        cases = [
            (poly([]), poly([1, 2, 3])),
            (poly([gi("3-4i")]), poly([gi("-1+i"), 0, 5])),
            (poly([GaussInt(-big, big)]), poly([GaussInt(big, -1), GaussInt(-big, -big)])),
            (poly([GaussInt(-big, big)] * 50), poly([GaussInt(big - 7, -big)])),
            (poly([gi("-1-i")] * 64), poly([gi("-1-i")] * 64)),
            (poly([0, 0, 0, gi("-i")]), poly([0, gi("-7")])),
        ]
        for f, g in cases:
            assert f * g == schoolbook_mul(f, g)
            assert g * f == schoolbook_mul(g, f)

    def test_slots_at_their_extremes(self):
        # Constant-coefficient factors put every product coefficient at the
        # largest magnitude the slot width must hold, with both signs; the
        # product of two length-n constant runs is c*d times 1, 2, .., n, .., 1.
        for bits in (1, 7, 8, 9, 62, 200):
            m = 2**bits - 1
            for length in (1, 2, 3, 4, 127, 128, 255, 256):
                ramp = [min(k + 1, 2 * length - 1 - k) for k in range(2 * length - 1)]
                for c, d in (((m, m), (m, -m)), ((m, m), (-m, -m)), ((m, m), (m, m)), ((-m, 0), (0, m))):
                    f = PolyZi.make([GaussInt(*c)] * length)
                    g = PolyZi.make([GaussInt(*d)] * length)
                    cd = GaussInt(*c) * GaussInt(*d)
                    assert f * g == PolyZi.make([cd * r for r in ramp])
                    cc = GaussInt(*c) * GaussInt(*c)
                    assert f * f == PolyZi.make([cc * r for r in ramp])


class TestDiscriminant:
    def test_quadratic_examples(self):
        assert discriminant(poly([1, 0, 1])) == gi("-4")
        assert discriminant(poly([gi("1+i"), -1, 1])) == gi("-3-4i")

    def test_degree_one_convention(self):
        assert discriminant(poly([gi("7-i"), 1])) == gi("1")

    def test_cubic_formula_random(self, rng):
        for _ in range(40):
            p = GaussInt(rng.randint(-8, 8), rng.randint(-8, 8))
            q = GaussInt(rng.randint(-8, 8), rng.randint(-8, 8))
            f = PolyZi.make([q, p, GaussInt(0, 0), GaussInt(1, 0)])
            want = gi("-4") * p * p * p + gi("-27") * q * q
            assert discriminant(f) == want

    def test_nonmonic_rejected(self):
        with pytest.raises(InputError):
            discriminant(poly([1, 0, 2]))

    def test_resultant_multiplicative(self, rng):
        for _ in range(30):
            f, g, h = rand_poly(rng, 3, 5), rand_poly(rng, 3, 5), rand_poly(rng, 3, 5)
            if f.is_zero() or g.is_zero() or h.is_zero():
                continue
            assert resultant(f, g * h) == resultant(f, g) * resultant(f, h)

    def test_deflated_disc_equals_the_sylvester_value(self, rng):
        # f = X^k G(X^d) with random G over Z[i], G(0) = 0 included, and
        # random terms set to zero so that vanishing terms are exercised
        seen = set()
        for _ in range(300):
            d, k = rng.randint(1, 5), rng.randint(0, 2)
            g = [GaussInt(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(rng.randint(0, 4))]
            g = [c if rng.random() > 0.25 else GaussInt(0, 0) for c in g] + [GaussInt(1, 0)]
            coeffs = [GaussInt(0, 0)] * (k + d * (len(g) - 1) + 1)
            coeffs[k::d] = g
            f = PolyZi.make(coeffs)
            if f.degree() < 1:
                continue
            seen.add((d, k, g[0].is_zero()))
            assert discriminant(f) == sylvester_disc(f), f
        assert len(seen) == 30

    @pytest.mark.parametrize("b", ["-3", "-3-4i", "3-6i", "9"])
    def test_lemnatomic_disc_equals_the_sylvester_value(self, b):
        h = lemnatomic_exact(gi(b)).coefficients
        assert discriminant(h) == sylvester_disc(h)

    def test_disc_vanishes_iff_not_squarefree_mod_pi(self):
        cases = [
            poly([1, 0, 1]),
            poly([-1, 0, 0, 0, 1]),
            poly([gi("1+i"), -1, 1]),
            poly([2, 3, 0, 1]),
            poly([-2, 0, 1]) * poly([-2, 0, 1]),
        ]
        primes = primes_up_to_norm(60)
        for f in cases:
            if not f.is_monic():
                continue
            d = discriminant(f)
            for pi in primes:
                assert divides(pi.value, d) == (not squarefree(reduce_poly(f, pi.value)))


def bareiss_det(matrix: list) -> GaussInt:
    """Fraction-free determinant (Bareiss elimination with row pivoting).

    Runs on parallel re/im int rows.  Every division by the previous pivot is
    exact (Sylvester's identity); it is done inline as a product with the
    conjugate over the norm, and the remainder is asserted zero.
    """
    n = len(matrix)
    if n == 0:
        return GaussInt(1, 0)
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
                return GaussInt(0, 0)
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
                assert not (rr or ri), "a Bareiss division left a remainder"
                row_re.append(qr)
                row_im.append(qi)
            re[i][k + 1 :], im[i][k + 1 :] = row_re, row_im
        ur, ui, norm = pr, pi, pr * pr + pi * pi
    det = GaussInt(re[n - 1][n - 1], im[n - 1][n - 1])
    return det if sign == 1 else -det


def sylvester_resultant(f: PolyZi, g: PolyZi) -> GaussInt:
    """Res(f, g) as the determinant of the Sylvester matrix of f and g."""
    n, m = f.degree(), g.degree()
    fc, gc = list(reversed(f.coeffs)), list(reversed(g.coeffs))
    zero = GaussInt(0, 0)
    rows = [[zero] * k + fc + [zero] * (m - 1 - k) for k in range(m)]
    rows += [[zero] * k + gc + [zero] * (n - 1 - k) for k in range(n)]
    return bareiss_det(rows)


def sylvester_disc(f: PolyZi) -> GaussInt:
    """(-1)^(n(n-1)/2) Res(f, f') on the full Sylvester matrix of f and f'."""
    n = f.degree()
    if n == 1:
        return GaussInt(1, 0)
    res = sylvester_resultant(f, f.derivative())
    return res if (n * (n - 1) // 2) % 2 == 0 else -res


@pytest.mark.slow
def test_disc_of_lambda_minus_11_equals_the_sylvester_value():
    """Lambda_-11 has degree 120: its Sylvester matrix is 239 x 239."""
    h = lemnatomic_exact(gi("-11")).coefficients
    assert discriminant(h) == sylvester_disc(h)


def gauss_digest(z: GaussInt) -> str:
    """The first 16 hex digits of sha256(re + b"," + im), each part as signed
    little-endian bytes."""

    def signed(n: int) -> bytes:
        return n.to_bytes((n.bit_length() + 8) // 8, "little", signed=True)

    return hashlib.sha256(signed(z.re) + b"," + signed(z.im)).hexdigest()[:16]


# disc(Lambda_beta) as computed by the Sylvester-matrix Bareiss determinant
# (the resultant before the modular one), frozen as digests
DISC_DIGESTS = {
    "-1+2i": "51722436c11f4941",
    "-3": "a2b56648f90fd671",
    "-3-4i": "378e11b3b7739c1e",
    "3-6i": "bbe6e3cca96c0dc1",
    "9": "524f58687ff64b60",
    "-11": "79c8f6ec9db4887b",
    "11-2i": "3711ea85b7192a0a",
    "13": "ae3d85dcaa25d19e",
}
SLOW_DISC_DIGESTS = {
    "17": "4ffda196f5c1ef58",
    "13+10i": "1255a125d02c0534",
    "-19": "c93901167862bd69",
}


@pytest.mark.parametrize("b", DISC_DIGESTS)
def test_lemnatomic_disc_is_the_frozen_value(b):
    assert gauss_digest(discriminant(lemnatomic_exact(gi(b)).coefficients)) == DISC_DIGESTS[b]


@pytest.mark.slow
@pytest.mark.parametrize("b", SLOW_DISC_DIGESTS)
def test_lemnatomic_disc_is_the_frozen_value_past_degree_250(b):
    assert gauss_digest(discriminant(lemnatomic_exact(gi(b)).coefficients)) == SLOW_DISC_DIGESTS[b]


def rand_big_poly(rng, degree, bits):
    """A degree-exact polynomial with parts below 2^bits in absolute value."""
    span = 1 << bits
    coeffs = [GaussInt(rng.randint(-span, span), rng.randint(-span, span)) for _ in range(degree + 1)]
    return PolyZi.make(coeffs[:-1] + [coeffs[-1] if not coeffs[-1].is_zero() else GaussInt(1, 1)])


class TestResultant:
    """The modular resultant against the Sylvester reference."""

    def test_random_pairs(self, rng):
        for _ in range(150):
            f, g = rand_poly(rng, 7, 9), rand_poly(rng, 7, 9)
            if not (f.is_zero() or g.is_zero()):
                assert resultant(f, g) == sylvester_resultant(f, g), (f, g)

    def test_zero_resultant_from_a_common_factor(self, rng):
        for _ in range(40):
            f, h = rand_big_poly(rng, rng.randint(1, 5), 6), rand_big_poly(rng, rng.randint(0, 3), 6)
            assert resultant(f, f * h) == GaussInt(0, 0) == sylvester_resultant(f, f * h)
            assert resultant(f * h, f) == GaussInt(0, 0)

    def test_nonmonic(self, rng):
        for _ in range(40):
            f = rand_big_poly(rng, rng.randint(1, 6), 5) * gi("3-2i")
            g = rand_big_poly(rng, rng.randint(1, 6), 5)
            assert not f.is_monic()
            assert resultant(f, g) == sylvester_resultant(f, g)
            assert resultant(g, f) == sylvester_resultant(g, f)

    def test_degree_zero(self, rng):
        c, d = gi("3-7i"), gi("-2+i")
        assert resultant(poly([c]), poly([d])) == GaussInt(1, 0)
        for _ in range(20):
            g = rand_big_poly(rng, rng.randint(1, 6), 8)
            m = g.degree()
            assert resultant(poly([c]), g) == c**m == sylvester_resultant(poly([c]), g)
            assert resultant(g, poly([c])) == c**m == sylvester_resultant(g, poly([c]))

    def test_coefficients_past_two_to_the_ninety(self, rng):
        for _ in range(20):
            f, g = rand_big_poly(rng, rng.randint(1, 6), 95), rand_big_poly(rng, rng.randint(1, 6), 95)
            assert resultant(f, g) == sylvester_resultant(f, g)

    def test_leading_coefficient_divisible_by_many_small_primes(self, rng):
        lead = GaussInt(1, 0)
        for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            lead = lead * q
        lead = lead * gi("1+i") ** 5
        for _ in range(10):
            f = PolyZi.make(list(rand_big_poly(rng, rng.randint(1, 5), 10).coeffs[:-1]) + [lead])
            g = rand_big_poly(rng, rng.randint(1, 5), 10)
            assert resultant(f, g) == sylvester_resultant(f, g)

    def test_a_leading_coefficient_that_vanishes_mod_the_first_prime(self, rng, monkeypatch):
        # lc = s0 - i vanishes under i -> s0 modulo the first CRT prime p0,
        # so p0 must be skipped, and the value still equal the reference
        p0 = next(p for p in range(zipoly._CRT_TOP - 3, 0, -4) if _is_rational_prime(p))
        s0 = _sqrt_minus_one(p0)
        used = []
        real = zipoly._resultant_mod
        monkeypatch.setattr(zipoly, "_resultant_mod", lambda a, b, p: used.append(p) or real(a, b, p))
        for _ in range(10):
            f = PolyZi.make(list(rand_big_poly(rng, rng.randint(1, 5), 10).coeffs[:-1]) + [GaussInt(s0, -1)])
            g = rand_big_poly(rng, rng.randint(1, 5), 10)
            assert resultant(f, g) == sylvester_resultant(f, g)
            assert resultant(g, f) == sylvester_resultant(g, f)
        assert used and p0 not in used
        used.clear()
        resultant(poly([1, 1]), poly([2, 1]))
        assert used[:2] == [p0, p0]  # the skip is the leading coefficient's doing

    def test_zero_polynomial_rejected(self):
        with pytest.raises(InputError):
            resultant(PolyZi(()), poly([1, 1]))


def cofactor_det(m):
    """Determinant by expansion along the first row."""
    if not m:
        return GaussInt(1, 0)
    total = GaussInt(0, 0)
    for j, c in enumerate(m[0]):
        term = c * cofactor_det([row[:j] + row[j + 1 :] for row in m[1:]])
        total = total + term if j % 2 == 0 else total - term
    return total


def gauss_matrix(rows):
    return [[gi(c) if isinstance(c, str) else GaussInt(c, 0) for c in row] for row in rows]


class TestBareissDet:
    """The reference determinant against cofactor expansion."""

    def test_matches_cofactor_expansion(self, rng):
        for n in range(7):
            for _ in range(12):
                # a third of the entries zero, so zero pivots come up
                m = [
                    [
                        GaussInt(rng.randint(-9, 9), rng.randint(-9, 9)) if rng.random() < 0.67 else GaussInt(0, 0)
                        for _ in range(n)
                    ]
                    for _ in range(n)
                ]
                assert bareiss_det(m) == cofactor_det(m), m

    def test_zero_pivot_forces_a_row_swap(self):
        # first pivot zero, and after one step the second pivot is zero too
        for rows in (
            [[0, 1, 2], [3, 4, 5], [6, 7, 9]],
            [[1, 1, 0], [1, 1, 1], [0, 1, 1]],
            [["1+i", "1+i", 0, 2], ["2", "2", "i", 1], [0, 3, 1, "-i"], [1, 0, "2-i", 0]],
        ):
            m = gauss_matrix(rows)
            assert bareiss_det(m) == cofactor_det(m) != GaussInt(0, 0)

    def test_singular(self):
        r1 = [gi("1+2i"), gi("-3"), gi("i"), gi("4-i")]
        r2 = [gi("2"), gi("1-i"), gi("5"), gi("-2i")]
        r4 = [gi("7"), gi("0"), gi("1+i"), gi("3")]
        r3 = [gi("1+i") * x + y for x, y in zip(r1, r2)]
        assert bareiss_det([r1, r2, r3, r4]) == GaussInt(0, 0)
        # a zero column ends the elimination early
        assert bareiss_det(gauss_matrix([[0, 1], [0, "2+i"]])) == GaussInt(0, 0)

    def test_empty_matrix(self):
        assert bareiss_det([]) == GaussInt(1, 0)


class TestExactDivide:
    def test_examples(self):
        assert exact_divide(poly([-1, 0, 1]), poly([-1, 1])) == poly([1, 1])
        f = poly([gi("2-i"), 5, 1])
        assert exact_divide(f, f) == ONE
        assert exact_divide(poly([0, 1, 0, 0, 0, 1]), X) == poly([1, 0, 0, 0, 1])

    def test_remainder_carried_on_failure(self):
        with pytest.raises(NotDivisible) as err:
            exact_divide(poly([1, 0, 1]), poly([-1, 1]))
        assert err.value.remainder == poly([2])

    def test_nonmonic_divisor_rejected(self):
        with pytest.raises(InputError):
            exact_divide(poly([0, 0, 2]), poly([0, 2]))

    def test_lower_degree_dividend_is_the_remainder(self):
        with pytest.raises(NotDivisible) as err:
            exact_divide(poly([1, gi("2-i")]), poly([1, 0, 1]))
        assert err.value.remainder == poly([1, gi("2-i")])
        assert exact_divide(poly([]), poly([1, 0, 1])) == poly([])

    def test_quotient_and_remainder_random(self, rng):
        for _ in range(60):
            g, q, r = rand_poly(rng, 4), rand_poly(rng, 4), rand_poly(rng, 4)
            g = PolyZi.make(list(g.coeffs) + [GaussInt(1, 0)])  # monic, degree >= 0
            r = PolyZi.make(r.coeffs[: g.degree()])
            if r.is_zero():
                assert exact_divide(g * q, g) == q
            else:
                with pytest.raises(NotDivisible) as err:
                    exact_divide(g * q + r, g)
                assert err.value.remainder == r

    def test_product_then_divide_random(self, rng):
        for _ in range(60):
            g = rand_poly(rng, 4)
            q = rand_poly(rng, 4)
            if g.is_zero() or q.is_zero():
                continue
            coeffs = list(g.coeffs[:-1]) + [GaussInt(1, 0)]
            g = PolyZi.make(coeffs)  # force monic divisor
            assert exact_divide(g * q, g) == q


class TestSerialization:
    def test_examples(self):
        assert to_json_dict(poly([1, 0, 1])) == {"coeffs": ["1", "0", "1"]}
        assert to_json_dict(poly([])) == {"coeffs": []}
        assert from_json_dict({"coeffs": ["-1+2i"]}) == poly([gi("-1+2i")])

    def test_round_trip_random(self, rng):
        for _ in range(100):
            f = rand_poly(rng, 8, 10**5)
            assert from_json_dict(to_json_dict(f)) == f

    def test_malformed(self):
        with pytest.raises((InputError, ParseError)):
            from_json_dict({"coeffs": ["1+j"]})
        with pytest.raises(InputError):
            from_json_dict({"nope": []})

    @pytest.mark.parametrize(
        "coeffs, text",
        [
            ([-3, 0, 0, 0, 6, 0, 0, 0, 1], "X^8 + 6X^4 - 3"),
            ([gi("-1+2i"), 0, 0, 0, 1], "X^4 + (-1+2i)"),
            ([-1, gi("i"), -1], "-X^2 + (i)X - 1"),
            ([gi("2-3i"), -5, 0, gi("-i"), 1], "X^4 + (-i)X^3 - 5X + (2-3i)"),
            ([], "0"),
        ],
    )
    def test_str(self, coeffs, text):
        assert str(poly(coeffs)) == text


@dataclass(frozen=True)
class _Report:
    poly: PolyZi
    primes: tuple
    ratio: float


class TestToJson:
    @pytest.mark.parametrize("value", ["-1+2i", "", 0, -7, 10**40, 0.25, True, False, None])
    def test_leaves_unchanged(self, value):
        assert to_json(value) is value

    def test_gaussian_integer_and_prime_as_literals(self):
        assert to_json(gi("-1+2i")) == "-1+2i"
        assert to_json(GaussInt(0, -1)) == "-i"
        assert to_json(GaussPrime(gi("-1+2i"), 5, "split")) == "-1+2i"

    def test_polynomial_as_its_json_form(self):
        f = poly([gi("2-3i"), 0, 1])
        assert to_json(f) == to_json_dict(f) == {"coeffs": ["2-3i", "0", "1"]}

    def test_containers(self):
        pi = primes_up_to_norm(5)[0]
        assert to_json((pi, 1)) == ["-1+2i", 1]
        assert to_json([(pi, 2), ()]) == [["-1+2i", 2], []]
        assert to_json({"unit": gi("i"), "factors": [(pi, 1)]}) == {"unit": "i", "factors": [["-1+2i", 1]]}

    def test_dataclass_as_its_fields(self):
        report = _Report(poly([1, 1]), tuple(primes_up_to_norm(10)), 0.5)
        assert to_json(report) == {
            "poly": {"coeffs": ["1", "1"]},
            "primes": ["-1+2i", "-1-2i", "-3"],
            "ratio": 0.5,
        }

    def test_not_a_dataclass(self):
        with pytest.raises(TypeError):
            to_json(object())
