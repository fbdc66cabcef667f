"""Exact symbolic pipeline: multiplication maps in t = s^4 from the product
formula, their certificate, all-torsion polynomials, and lemnatomic
polynomials, a composite beta's from its cofactor's at a prime map."""

import hashlib
import math
import time

import pytest
from mpmath import mp, mpc, mpf

from conftest import CORPUS_ALL_TORSION, CORPUS_BETAS, gi, sl_raw, sparse_poly
from lemnatomic import exact
from lemnatomic.errors import InputError, InternalInconsistency, NotDivisible
from lemnatomic.exact import (
    LemnatomicRecord,
    all_torsion_poly,
    divisors_up_to_units,
    lemnatomic_exact,
    mult_map,
    record_checksum,
)
from lemnatomic.gaussint import (
    I,
    UNITS,
    GaussInt,
    _unit_to_first_quadrant,
    exact_div,
    factor,
    format_gauss,
    is_primary,
    primary_normalize,
)
from lemnatomic.lemniscate import big_complex, lemnatomic_numeric, sl_eval, torsion_values
from lemnatomic.residue import phi_norm
from lemnatomic.zipoly import PolyZi, discriminant, exact_divide, poly

S = poly([0, 1])
T = poly([0, 1])  # t = s^4 in the (P, Q) form of a map
ONE_MINUS_T = poly([1, -1])
T_PLUS_2 = poly([2, 1])
STRIPPED_PAD = poly([-1, 1]) * poly([-1, 1]) * poly([1, 1])  # (t - 1)^2 (t + 1)
ONE_POLY = poly([1])
W = poly([1, 0, 0, 0, -1])


def eval_poly(f: PolyZi, z: mpc) -> mpc:
    acc = mpc(0)
    for c in reversed(f.coeffs):
        acc = acc * z + mpc(c.re, c.im)
    return acc


# SHA-256 of mult_map over the beta with |re|, |im| <= radius, even beta
# included (see TestMultMap.test_grid_is_byte_identical): radius 7 (224 beta)
# pinned when the maps came from the addition chain over Z[i][s], radius 9
# (360 beta) when the product formula's pair was reduced by a full gcd
MULT_MAP_GRID_SHA256 = {
    7: "9c712b1d8f1ee387a45dad4feb7bfae3e58d65c5f27fe8242a9eacd474a65379",
    9: "ed8745bb9ac4d8238ba6ab3ea75e67bf3d72aef187e0fdd24bc4ff8b0e7e3d8f",
}


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

    @pytest.mark.parametrize("radius", sorted(MULT_MAP_GRID_SHA256))
    def test_grid_is_byte_identical(self, radius):
        digest = hashlib.sha256()
        for re in range(-radius, radius + 1):
            for im in range(-radius, radius + 1):
                if re == 0 and im == 0:
                    continue
                (n, parity), d = mult_map(GaussInt(re, im))
                num, den = (",".join(map(format_gauss, f.coeffs)) for f in (n, d))
                digest.update(f"{re},{im}:{parity}:{num}/{den};".encode())
        assert digest.hexdigest() == MULT_MAP_GRID_SHA256[radius]

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

    def test_parity_is_zero_for_odd_and_one_for_even_beta(self):
        for re in range(-4, 5):
            for im in range(-4, 5):
                beta = GaussInt(re, im)
                if beta.is_zero():
                    continue
                (_, parity), _ = mult_map(beta)
                assert parity == (0 if beta.is_odd() else 1), beta

    @pytest.mark.parametrize(
        "b", ["2", "i", "-3", "-1+2i", "2+i", "3-2i", "-3-4i", "1+i", "3+3i", "4"]
    )
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
                want = sl_raw(bz, 280)[0]
                got = eval_poly(n, s) * c**parity / eval_poly(d, s)
                assert abs(got - want) < mpf(2) ** -180


# Lambda_beta checksums from the exact route, matched by the numeric route
FROZEN_CHECKSUMS = {
    "-3": "b4fd06d303e256e44d9c428f470e8717e1ab2e77b51310e8266973104afe27f2",
    "5+4i": "e0ef3410300d53f9353acf8722e784f4ea2b555276c94fb12338703d53c45b06",
    "3-6i": "eca39b3f6473d2391786a8d300579282de09ddddfac6f99977600c40c9d904ea",
    "-11": "395e67da1f490e9c4bc59f03764aa93e666aeb795e0bd683254f54cb451c981d",
}


def conjugate(f: PolyZi) -> PolyZi:
    return PolyZi(tuple(c.conjugate() for c in f.coeffs))


def stray_term(f: PolyZi) -> PolyZi:
    return f + PolyZi.make([0] * (f.degree() // 2) + [1])


def on_output(fp=lambda p: p, fq=lambda q: q):
    """A corruption that applies fp to the unreduced P and fq to Q."""

    def corrupt(real, u, v, delta):
        p, q = real(u, v, delta)
        return fp(p), fq(q)

    return corrupt


def without_one_minus_t(real, u, v, delta):
    """real(u, v, delta) with A_x = P_x^2 for an even half x too, as if
    sl^2(x z) had no factor c^2 = 1 - t."""
    for x in (u, v, delta):
        exact._map(x)  # the halves' own maps stay uncorrupted
    with pytest.MonkeyPatch.context() as m:
        m.setattr(exact, "_squares", lambda x: tuple(f * f for f in exact._map(x)))
        return real(u, v, delta)


# Each takes the real _product and its arguments (u, v, delta) and returns a
# corrupted unreduced (P, Q).  The faults named after a and s act on the
# s-form sl = c^parity a / b, a = s P(s^4), b = Q(s^4): a plus s^5 adds t to
# P, and s to is, which leaves t and c alone, multiplies P by i.
CHAIN_CORRUPTIONS = {
    "a to -a": on_output(fp=lambda p: -p),
    "Q to -Q": on_output(fq=lambda q: -q),
    "conjugate P": on_output(fp=conjugate),
    "conjugate Q": on_output(fq=conjugate),
    "s to is": on_output(fp=lambda p: p * I),
    "Q to iQ": on_output(fq=lambda q: q * I),
    "a plus s^5": on_output(fp=lambda p: p + T),
    "t^k in P": on_output(fp=stray_term),
    "t^k in Q": on_output(fq=stray_term),
    "swap u and v": lambda real, u, v, delta: real(v, u, delta),
    "-delta": lambda real, u, v, delta: real(u, v, -delta),
    "i delta": lambda real, u, v, delta: real(u, v, delta * I),
    "drop (1-t) of an even half": without_one_minus_t,
}
FAULT_STEPS = 6
EVEN_BETAS = ("2", "4", "3+3i", "6")


def clear_memos():
    exact._map.cache_clear()
    exact._lemnatomic_poly.cache_clear()


def count_caught(corrupt, monkeypatch, compute, want) -> int:
    """Corrupt chain step 1, 2, ..., FAULT_STEPS, a chain step being one
    _product of the recursion over halves, in turn with cold memos;
    each run of compute on a beta b in want raises InternalInconsistency or
    gives want[b].  Returns how many runs raised."""
    real = exact._product
    caught = 0
    for b in want:
        for step in range(FAULT_STEPS):
            calls = []

            def faulty(u, v, delta):
                calls.append(delta)
                if len(calls) != step + 1:
                    return real(u, v, delta)
                return corrupt(real, u, v, delta)

            monkeypatch.setattr(exact, "_product", faulty)
            clear_memos()
            try:
                got = compute(gi(b))
            except InternalInconsistency:
                caught += 1
                continue
            assert got == want[b], f"step {step} of {b} went undetected"
    # a caller may wrap _product again, as the reference-verifier re-run does
    monkeypatch.setattr(exact, "_product", real)
    return caught


def assert_s_identity(n: PolyZi, parity: int, d: PolyZi, beta: GaussInt) -> None:
    """The first integral of f = N c^parity / B over Z[i][s], an oracle for
    the certificate in t."""
    n2, d2 = n * n, d * d
    if parity == 0:
        # W (N'B - NB')^2 = beta^2 (B^4 - N^4)
        m = n.derivative() * d - n * d.derivative()
        assert m * m * W == (d2 * d2 - n2 * n2) * (beta * beta)
    else:
        # ((N'W - 2s^3 N)B - NWB')^2 = beta^2 (B^4 - W^2 N^4)
        m = (n.derivative() * W - poly([0, 0, 0, 2]) * n) * d - n * W * d.derivative()
        assert m * m == (d2 * d2 - n2 * n2 * W * W) * (beta * beta)


def reference_sides(p: PolyZi, q: PolyZi, beta: GaussInt) -> tuple:
    """(lhs, rhs, P^4) of the first integral lhs = beta^2 rhs, computed on
    PolyZi values coefficient by coefficient: (1 - t) R^2 and
    rev(P^4) - t P^4 for odd beta, R1^2 and Q^4 - t (1 - t)^2 P^4 for even
    beta.  The reference for the packed identity in _verify_first_integral."""
    a = PolyZi.make([c * (4 * k + 1) for k, c in enumerate(p.coeffs)])
    b = PolyZi.make([c * (4 * k) for k, c in enumerate(q.coeffs)])
    r = a * q - p * b
    p2 = p * p
    p4 = p2 * p2
    if beta.is_odd():
        r2 = r * r
        return r2 - exact._times_t(r2), PolyZi.make(reversed(p4.coeffs)) - exact._times_t(p4), p4
    r = r - exact._times_t(r) - exact._times_t(p * q) * 2
    q2, wp2 = q * q, p2 - exact._times_t(p2)
    return r * r, q2 * q2 - exact._times_t(wp2 * wp2), p4


def reference_verify(p: PolyZi, q: PolyZi, beta: GaussInt) -> None:
    """_verify_first_integral with the identity compared on PolyZi values:
    the same checks in the same order, with the same messages."""
    if q[0] == exact.ZERO or p[0] != beta * q[0]:
        raise InternalInconsistency(
            f"sl({beta} z) = s P(t) / Q(t) fails the initial condition P(0) = beta Q(0) != 0"
        )
    n = beta.norm()
    if beta.is_odd():
        if 4 * p.degree() + 1 != n:
            raise InternalInconsistency(
                f"numerator degree {4 * p.degree() + 1} != N(beta) = {n} for beta={beta}"
            )
        rev = PolyZi.make(reversed(p.coeffs))
        if not any(q == rev * u for u in UNITS):
            raise InternalInconsistency(
                f"denominator of sl({beta} z) is not a unit times the reversed numerator"
            )
    lhs, rhs, _ = reference_sides(p, q, beta)
    if lhs != rhs * (beta * beta):
        raise InternalInconsistency(f"sl({beta} z) violates the first integral of the defining equation")
    if not beta.is_odd() and q.degree() != (n + 2) // 4:
        raise InternalInconsistency(
            f"denominator degree {q.degree()} != ceil((N(beta) - 1) / 4) = {(n + 2) // 4}"
            f" for beta={beta}"
        )


def largest_part_bits(*polys: PolyZi) -> int:
    return max(max(abs(c.re).bit_length(), abs(c.im).bit_length()) for f in polys for c in f.coeffs)


class TestChainVerifier:
    """mult_map certifies every map, in t = s^4, by the first integral
    (sl')^2 = 1 - sl^4 with the initial condition P(0) = beta Q(0) != 0, and
    for odd beta by deg P and Q = unit * t^deg P * P(1/t), for even beta by
    deg Q.  Every map comes from a chain of product-formula steps over
    halves, and each step builds a map that is certified on its own, after
    its common factors t -/+ 1 are stripped."""

    @pytest.fixture
    def cold_memos(self):
        clear_memos()
        yield
        clear_memos()  # corrupted pairs must not outlive the test

    # Each corruption is also run with reference_verify in place of the
    # certificate, which must catch exactly as many faults.
    @pytest.mark.parametrize("kind", list(CHAIN_CORRUPTIONS))
    def test_corrupted_chain_step_is_caught_or_harmless(self, kind, cold_memos, monkeypatch):
        def run():
            return count_caught(
                CHAIN_CORRUPTIONS[kind],
                monkeypatch,
                lambda b: lemnatomic_exact(b).checksum,
                FROZEN_CHECKSUMS,
            )

        caught = run()
        assert caught, f"{kind} was never caught"
        monkeypatch.setattr(exact, "_verify_first_integral", reference_verify)
        assert run() == caught

    @pytest.mark.parametrize("kind", list(CHAIN_CORRUPTIONS))
    def test_corrupted_chain_step_on_even_beta_is_caught_or_harmless(
        self, kind, cold_memos, monkeypatch
    ):
        want = {b: mult_map(gi(b)) for b in EVEN_BETAS}
        caught = count_caught(CHAIN_CORRUPTIONS[kind], monkeypatch, mult_map, want)
        assert caught, f"{kind} was never caught"
        monkeypatch.setattr(exact, "_verify_first_integral", reference_verify)
        assert count_caught(CHAIN_CORRUPTIONS[kind], monkeypatch, mult_map, want) == caught

    def test_swapped_pair_is_not_of_the_t_form(self):
        # i B / N = i / sl(beta z) satisfies the first integral as well, but
        # it is s^-1 times a function of s^4, so it has no (P, Q) in t, the
        # only form a map is built and certified in
        beta = gi("-3")
        (n, parity), b = mult_map(beta)
        num, den = b * I, n
        assert_s_identity(num, parity, den, beta)
        assert n == exact._from_t(PolyZi(n.coeffs[1::4]), 1)
        assert num != exact._from_t(PolyZi(num.coeffs[1::4]), 1)

    @pytest.mark.parametrize("b", ["-3", "2"])
    def test_common_factor_t_fails_only_the_initial_condition(self, b):
        # (t P, t Q) is sl(beta z) too, so it satisfies the first integral
        beta = gi(b)
        p, q = exact._map(beta)
        p, q = T * p, T * q
        (_, parity), _ = mult_map(beta)
        assert_s_identity(exact._from_t(p, 1), parity, exact._from_t(q, 0), beta)
        with pytest.raises(InternalInconsistency, match="initial condition"):
            exact._verify_first_integral(p, q, beta)

    @pytest.mark.parametrize("b", ["-3", "2"])
    def test_negated_map_fails_only_the_initial_condition(self, b):
        # -sl(beta z) satisfies the first integral; f'(0) = -beta gives it away
        beta = gi(b)
        p, q = exact._map(beta)
        (_, parity), _ = mult_map(beta)
        assert_s_identity(exact._from_t(-p, 1), parity, exact._from_t(q, 0), beta)
        with pytest.raises(InternalInconsistency, match="initial condition"):
            exact._verify_first_integral(-p, q, beta)

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
        p, q = exact._map(beta)
        with pytest.raises(InternalInconsistency, match="reversed numerator"):
            exact._verify_first_integral(p, q + T, beta)

    @pytest.mark.parametrize("b", ["-3", "2", "3+3i"])
    def test_wrong_parity_rejected(self, b):
        # a wrong power of c in sl(beta z) = c^parity s P / Q shows in t as a
        # stray factor c^2 = 1 - t on P or on Q
        beta = gi(b)
        p, q = exact._map(beta)
        for bad in ((p * ONE_MINUS_T, q), (p, q * ONE_MINUS_T)):
            with pytest.raises(InternalInconsistency):
                exact._verify_first_integral(*bad, beta)

    @pytest.mark.parametrize(
        "b", ["-3", "-1+2i", "-3-4i", "3-6i", "-11", "11-2i", "1+i", "2", "3+3i", "6"]
    )
    def test_t_identity_is_the_s_identity(self, b):
        # the s-form identities on the same map still hold, so the t-form
        # ones replaced identities that the maps satisfy
        beta = gi(b)
        (n, parity), d = mult_map(beta)
        assert_s_identity(n, parity, d, beta)

    @pytest.mark.parametrize("b", ["2", "4", "3+3i"])
    def test_even_beta_runs_the_chain_and_is_certified_in_t(self, b, cold_memos, monkeypatch):
        # 2 is a base case, a chain of no product step
        beta = gi(b)
        steps = []
        real_product = exact._product
        monkeypatch.setattr(exact, "_product", lambda *a: steps.append(a) or real_product(*a))
        (n, parity), d = mult_map(beta)
        assert bool(steps) == (beta.norm() > 4)
        assert parity == 1 and n[1] == beta * d[0]
        p, q = exact._map(beta)
        assert (exact._from_t(p, 1), exact._from_t(q, 0)) == (n, d)
        exact._verify_first_integral(p, q, beta)
        with pytest.raises(InternalInconsistency, match="first integral"):
            exact._verify_first_integral(p, q + T * T, beta)

    @pytest.mark.parametrize("b", ["4", "2+2i", "3+3i"])
    def test_stray_common_factor_on_even_step_fails_the_denominator_degree(
        self, b, cold_memos, monkeypatch
    ):
        # the reduction strips only t -/+ 1, and (t + 2) P / ((t + 2) Q) passes
        # the initial condition and the first integral
        real = exact._product

        def padded(u, v, delta):
            p, q = real(u, v, delta)
            if (u + v).is_odd():
                return p, q
            return p * T_PLUS_2, q * T_PLUS_2

        monkeypatch.setattr(exact, "_product", padded)
        with pytest.raises(InternalInconsistency, match="denominator degree"):
            mult_map(gi(b))

    def test_stray_t_minus_1_squared_t_plus_1_is_stripped(self, cold_memos, monkeypatch):
        want = {b: mult_map(gi(b)) for b in (*FROZEN_CHECKSUMS, *EVEN_BETAS, "19+10i", "-19")}
        clear_memos()
        real = exact._product
        monkeypatch.setattr(exact, "_product", lambda *a: tuple(f * STRIPPED_PAD for f in real(*a)))
        assert {b: mult_map(gi(b)) for b in want} == want


class TestPackedIdentity:
    """_verify_first_integral compares the first integral's two sides as
    (Re, Im) int pairs of their values at t = 2^w; reference_sides computes
    them coefficient by coefficient."""

    def test_every_grid_map_is_accepted_with_a_sign_bit_to_spare(self, monkeypatch):
        # every map the radius-7 grid builds, halves and delta included
        clear_memos()
        maps = []
        certify = exact._verify_first_integral
        monkeypatch.setattr(exact, "_verify_first_integral", lambda *a: maps.append(a) or certify(*a))
        for re in range(-7, 8):
            for im in range(-7, 8):
                if re or im:
                    mult_map(GaussInt(re, im))
        monkeypatch.undo()
        widths = []
        slot_width = exact._slot_width
        monkeypatch.setattr(exact, "_slot_width", lambda *a: widths.append(slot_width(*a)) or widths[-1])
        assert len(maps) >= 224
        for p, q, beta in maps:
            certify(p, q, beta)
            reference_verify(p, q, beta)
            lhs, rhs, p4 = reference_sides(p, q, beta)
            # the slots of P^4 are reversed only for odd beta
            sides = (lhs, rhs, rhs * (beta * beta)) + ((p4,) if beta.is_odd() else ())
            assert largest_part_bits(*sides) <= widths[-1] - 1, f"beta={beta}"


def composite_step(b: str) -> tuple:
    """(beta, pi, gamma) of the composite step of _lemnatomic_poly at the
    primary associate beta of b: pi is beta's first prime factor of largest
    norm and gamma = beta / pi."""
    beta = primary_normalize(gi(b))[1]
    prime, _ = max(factor(beta)[1], key=lambda fe: fe[0].norm)
    return beta, prime.value, exact_div(beta, prime.value)


def first_quadrant(z: GaussInt) -> GaussInt:
    return z * _unit_to_first_quadrant(z)


def warm_step_inputs(pi, gamma) -> None:
    """Cold memos, then G_gamma and pi's map in them, so that computing
    Lambda_beta for beta = pi gamma runs its own composite step alone."""
    clear_memos()
    exact._lemnatomic_poly(gamma)
    exact._map(first_quadrant(pi))


def plus_halfway(f: PolyZi, offset: GaussInt) -> PolyZi:
    k = f.degree() // 2
    return PolyZi.make(f.coeffs[:k] + (f.coeffs[k] + offset,) + f.coeffs[k + 1 :])


# Each corrupts the map (P, Q) of pi that the composite step reads
PRIME_MAP_CORRUPTIONS = {
    "P times 1+t": lambda p, q: (p * poly([1, 1]), q),
    "conjugate of pi": lambda p, q: (conjugate(p), conjugate(q)),
}
COMPOSITE_CHECKSUMS = {
    "3-6i": FROZEN_CHECKSUMS["3-6i"],
    "-3-4i": "ec7ed637140e068937e100cc735a1098be9900dc05cdb9cc7c2789e0328c5421",
    "9": "e5876ebd4a09a52ff8dcffdaa9288b233f059a89893897a1df94c808e9a57737",
    "11-2i": "6aec37ad27db081bfeb3e47050bc490911c631bbda6449b00845810c6802f2af",
}
STEP_BETAS = ("9", "3-6i", "11-2i", "-3-4i", "45", "27", "15+6i")
STEP_OFFSETS = {"+1": "1", "+3i": "3i", "+3": "3"}


class TestComposition:
    """A composite beta's G is one step from G_gamma, gamma = beta / pi, at
    the certified map of pi, its prime factor of largest norm: H, the
    homogenised G_gamma at (t P^4, Q^4), and one exact division by G_gamma
    when pi does not divide gamma.  Every map, a composite beta's included,
    comes from the product formula."""

    @pytest.fixture
    def cold_memos(self):
        clear_memos()
        yield
        clear_memos()  # corrupted entries must not outlive the test

    @pytest.mark.parametrize("b", ["-3-4i", "9", "3-6i", "11-2i", "-9i", "-7-24i"])
    def test_composite_beta_runs_no_chain_step(self, b, cold_memos, monkeypatch):
        # with its prime factors' maps in the memo, a composite Lambda_beta
        # runs no product step and never asks for a map of beta itself
        beta = gi(b)
        _, facs = factor(beta)
        for prime, _ in facs:  # an associate's map is read off the same entry
            exact._map(prime.value)
        steps, mapped = [], []
        real_product, real_map = exact._product, exact._map
        monkeypatch.setattr(exact, "_product", lambda *a: steps.append(a) or real_product(*a))
        monkeypatch.setattr(exact, "_map", lambda x: mapped.append(x) or real_map(x))
        lemnatomic_exact(beta)
        assert steps == []
        assert mapped and not any(x * u == beta for x in mapped for u in UNITS)

    def test_common_factor_is_caught_by_the_degree(self, cold_memos, monkeypatch):
        # (t + 2) P / ((t + 2) Q) for an odd beta passes the reversal and the
        # first integral, and the reduction strips only t -/+ 1; only the
        # numerator degree shows the map is not in lowest terms
        real = exact._product

        def padded(u, v, delta):
            p, q = real(u, v, delta)
            if not (u + v).is_odd():
                return p, q
            return p * T_PLUS_2, q * T_PLUS_2

        monkeypatch.setattr(exact, "_product", padded)
        with pytest.raises(InternalInconsistency, match="numerator degree"):
            mult_map(gi("9"))

    @pytest.mark.parametrize("kind", list(PRIME_MAP_CORRUPTIONS))
    def test_corrupted_composition_is_caught_or_harmless(self, kind, cold_memos, monkeypatch):
        corrupt = PRIME_MAP_CORRUPTIONS[kind]
        real = exact._map
        caught = 0
        for b, checksum in COMPOSITE_CHECKSUMS.items():
            beta, pi, gamma = composite_step(b)
            warm_step_inputs(pi, gamma)
            with monkeypatch.context() as m:
                m.setattr(exact, "_map", lambda x: corrupt(*real(x)) if x == first_quadrant(pi) else real(x))
                try:
                    record = lemnatomic_exact(beta)
                except (NotDivisible, InternalInconsistency):
                    caught += 1
                    continue
            assert record.checksum == checksum, f"{kind} of {b} went undetected"
        assert caught, f"{kind} was never caught"

    @pytest.mark.parametrize("offset", list(STEP_OFFSETS))
    @pytest.mark.parametrize("target", ["H", "P_pi", "G_gamma"])
    def test_corrupted_step_coefficient_is_caught(self, target, offset, cold_memos, monkeypatch):
        # one coefficient, halfway up, of H, of pi's P or of G_gamma as the
        # step reads it, off by offset: the step's own checks or build's
        # invariants reject every such record
        add = gi(STEP_OFFSETS[offset])
        real_hom, real_map, real_poly = exact._hom, exact._map, exact._lemnatomic_poly
        for b in STEP_BETAS:
            beta, pi, gamma = composite_step(b)
            warm_step_inputs(pi, gamma)

            def corrupt_map(x):
                p, q = real_map(x)
                return (plus_halfway(p, add), q) if x == first_quadrant(pi) else (p, q)

            with monkeypatch.context() as m:
                if target == "H":
                    m.setattr(exact, "_hom", lambda *a: plus_halfway(real_hom(*a), add))
                elif target == "P_pi":
                    m.setattr(exact, "_map", corrupt_map)
                else:
                    m.setattr(
                        exact,
                        "_lemnatomic_poly",
                        lambda x: plus_halfway(real_poly(x), add) if x == gamma else real_poly(x),
                    )
                with pytest.raises((NotDivisible, InternalInconsistency)):
                    lemnatomic_exact(beta)

    def test_conjugate_prime_map_breaks_only_the_reduction_law(self, cold_memos, monkeypatch):
        # 11-2i = pi gamma with pi = -1+2i and gamma = -3-4i = pi^2: H built at
        # conj(pi)'s map is G_(conj(pi) gamma) G_gamma, a polynomial that keeps
        # every invariant build checks; Kronecker's congruence at pi tells
        beta, pi, gamma = composite_step("11-2i")
        assert (pi, gamma) == (gi("-1+2i"), gi("-3-4i"))
        p, q = exact._map(first_quadrant(pi))
        wrong = exact._hom(exact._lemnatomic_poly(gamma), conjugate(p), conjugate(q))
        LemnatomicRecord.build(beta, exact._from_t(wrong * wrong.leading().conjugate(), 0), "exact", 0)
        warm_step_inputs(pi, gamma)
        real = exact._map
        monkeypatch.setattr(
            exact, "_map", lambda x: tuple(map(conjugate, real(x))) if x == first_quadrant(pi) else real(x)
        )
        with pytest.raises(InternalInconsistency, match="reduction law"):
            lemnatomic_exact(beta)


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

    def test_every_divisor_primary(self):
        # products of primary primes, returned with no normalization
        for a in range(-15, 16):
            for b in range(-15, 16):
                beta = GaussInt(a, b)
                if not beta.is_odd() or beta.norm() == 1:
                    continue
                divs = divisors_up_to_units(beta)
                assert all(is_primary(d) for d in divs), beta
                assert len(set(divs)) == math.prod(e + 1 for _, e in factor(beta)[1])


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

    def test_nonunit_leading_coefficient_rejected(self, monkeypatch):
        # a map pair scaled by 1+i still has the right quotient, but its
        # numerator is no unit times T_beta / X; 3's map is built unscaled
        # first, so only the pair read off its memo entry is scaled
        all_torsion_poly(gi("-3"))
        exact._lemnatomic_poly.cache_clear()
        real = exact._map
        monkeypatch.setattr(exact, "_map", lambda beta: tuple(f * gi("1+i") for f in real(beta)))
        with pytest.raises(InternalInconsistency, match="leading coefficient"):
            all_torsion_poly(gi("-3"))
        with pytest.raises(InternalInconsistency, match="leading coefficient"):
            lemnatomic_exact(gi("-3"))


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


@pytest.mark.parametrize("b", ["-1+2i", "-3", "-3-4i", "3-6i", "9", "-11", "13"])
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
        clear_memos()

    def test_memos_are_bounded_lru_caches(self):
        for memo in (exact._map, exact._lemnatomic_poly):
            maxsize = memo.cache_info().maxsize
            assert maxsize is not None and maxsize > 0

    def test_associate_reuses_lemnatomic_memo(self, monkeypatch):
        calls = []
        real = exact._map

        def counting(beta):
            calls.append(beta)
            return real(beta)

        monkeypatch.setattr(exact, "_map", counting)
        lemnatomic_exact(gi("-3"))
        assert calls
        calls.clear()
        lemnatomic_exact(gi("3"))
        assert calls == []

    def test_associate_map_is_read_off_the_first_quadrant_entry(self, monkeypatch):
        # -9i = -i * 9: with 9's map in the memo, -9i's runs no product step
        exact._map(gi("9"))
        steps, certified = [], []
        real_product, real_verify = exact._product, exact._verify_first_integral
        monkeypatch.setattr(exact, "_product", lambda *a: steps.append(a) or real_product(*a))
        monkeypatch.setattr(
            exact, "_verify_first_integral", lambda *a: certified.append(a[2]) or real_verify(*a)
        )
        p, q = exact._map(gi("-9i"))
        assert steps == []
        p9, q9 = exact._map(gi("9"))
        assert (p, q) == (p9 * gi("-i"), q9)
        assert certified == [gi("-9i")]  # the associate is certified too

    def test_lambda_of_minus_3_minus_4i_reused_by_11_minus_2i(self, monkeypatch):
        # 11-2i = (-1+2i) * (-3-4i): G of -3-4i and the map of -1+2i's
        # first-quadrant associate 2+i are in the memos, so 11-2i builds no map
        lemnatomic_exact(gi("-3-4i"))
        poly_hits, map_info = exact._lemnatomic_poly.cache_info().hits, exact._map.cache_info()
        steps = []
        real = exact._product
        monkeypatch.setattr(exact, "_product", lambda *a: steps.append(a) or real(*a))
        lemnatomic_exact(gi("11-2i"))
        assert steps == []
        assert exact._lemnatomic_poly.cache_info().hits == poly_hits + 1
        assert exact._map.cache_info().hits == map_info.hits + 1
        assert exact._map.cache_info().misses == map_info.misses


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


# Record checksums of the numeric route, which shares no code with the
# exact route's product formula, composite step or certificate
NUMERIC_CHECKSUMS = {
    "33": "20201a426f4082fa0feb055eda78ed6013554375ac6ee34489da6f01e2e59f5a",
    "45": "f0d8319a79e19f6986736105bb8b15f7c616490439873b7d7c8937f3b046dd8c",
    "-31": "42e97162aa9cfe450f082f5f80385beee0c88efe00436de6128d18776348424d",
    "-43": "46e24f49ce0a3148df7bf07a3ea031d8f46fa1f2b21b9613aad588a4c0e9e82b",
}


def test_exact_33_by_composition_matches_the_numeric_route():
    """33 = -3 * -11 (N = 1089): G_-3 homogenised at -11's map, divided by
    G_-3."""
    assert lemnatomic_exact(gi("33")).checksum == NUMERIC_CHECKSUMS["33"]


@pytest.mark.slow
@pytest.mark.parametrize("b", ["45", "-31"])
def test_exact_matches_the_numeric_route_at_large_norm(b):
    """45 = (-3)^2 (-1+2i)(-1-2i) (N = 2025) takes three composite steps,
    through 5 and -15, at the maps of -1+2i and of -3 twice; -31 (N = 961) is prime,
    so it comes from the product formula on -15 and -16, each certified."""
    beta = gi(b)
    numeric, _ = lemnatomic_numeric(beta, 256)
    record = lemnatomic_exact(beta)
    assert record.coefficients == numeric
    assert record.checksum == NUMERIC_CHECKSUMS[b]


@pytest.mark.slow
def test_exact_minus_43_matches_the_numeric_checksum_in_budget():
    """-43 (N = 1849) is prime: the product formula on -21 and -22 and the
    certificate of its degree-462 map, in a wall budget of 15 s."""
    t0 = time.perf_counter()
    assert lemnatomic_exact(gi("-43")).checksum == NUMERIC_CHECKSUMS["-43"]
    assert time.perf_counter() - t0 < 15.0


def primary_grid(max_norm: int) -> list:
    """Every primary odd non-unit beta with N(beta) <= max_norm, in
    (N, re, im) order."""
    r = math.isqrt(max_norm)
    grid = (GaussInt(re, im) for re in range(-r, r + 1) for im in range(-r, r + 1))
    return sorted(
        (b for b in grid if 1 < b.norm() <= max_norm and is_primary(b)), key=lambda b: (b.norm(), b.re, b.im)
    )


# SHA-256 of the exact route's record checksums over primary_grid(600), as
# ASCII and concatenated, frozen before the exact route's composite step
# was rewritten
LAMBDA_GRID_SHA256 = "5061de25578be5365e006d87df37851af85a454b5ab849d423429059e906acc9"


def test_lambda_grid_is_byte_identical():
    grid = primary_grid(600)
    assert len(grid) == 233
    digest = hashlib.sha256()
    for beta in grid:
        digest.update(lemnatomic_exact(beta).checksum.encode("ascii"))
    assert digest.hexdigest() == LAMBDA_GRID_SHA256


@pytest.mark.slow
def test_numeric_route_matches_the_exact_route_on_the_grid():
    """The two routes share no code beyond Gaussian-integer arithmetic, so
    agreement coefficient by coefficient on all 233 beta of the digest's grid
    guards the digest against an error common to an old and a new tree."""
    for beta in primary_grid(600):
        numeric, _ = lemnatomic_numeric(beta, 256)
        assert numeric == lemnatomic_exact(beta).coefficients, f"beta={beta}"


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

    @pytest.mark.parametrize("b", ["-1+2i", "-3", "3-6i"])
    def test_build_rejects_a_coefficient_off_x4(self, b):
        good = lemnatomic_exact(gi(b)).coefficients
        for k in range(1, good.degree()):
            if k % 4:
                bad = PolyZi.make(good.coeffs[:k] + (gi("i"),) + good.coeffs[k + 1 :])
                for method in ("exact", "numeric"):
                    with pytest.raises(InternalInconsistency, match="polynomial in X\\^4"):
                        LemnatomicRecord.build(gi(b), bad, method, 0)

    @pytest.mark.parametrize("b, value", [("-3", "4"), ("-3-4i", "32i"), ("13", str(2**36))])
    def test_value_at_1_is_a_unit_times_a_power_of_2(self, b, value):
        coeffs = lemnatomic_exact(gi(b)).coefficients.coeffs
        assert sum(coeffs, gi("0")) == gi(value)

    @pytest.mark.parametrize("b", ["-3", "-3-4i", "3-6i"])
    def test_build_rejects_a_wrong_value_at_1(self, b):
        # +1 on the X^4 coefficient keeps the degree, monicity, the X^4 shape
        # and the constant term
        good = lemnatomic_exact(gi(b)).coefficients
        bad = PolyZi.make(good.coeffs[:4] + (good.coeffs[4] + 1,) + good.coeffs[5:])
        assert bad.degree() == good.degree() > 4 and bad[0] == good[0]
        for method in ("exact", "numeric"):
            with pytest.raises(InternalInconsistency, match="at 1"):
                LemnatomicRecord.build(gi(b), bad, method, 0)

    @pytest.mark.parametrize(
        "b, constant", [("-3", "3"), ("-3", "0"), ("-3-4i", "-1-2i"), ("3-6i", "-3"), ("3-6i", "0")]
    )
    def test_build_rejects_wrong_constant_term(self, b, constant):
        good = lemnatomic_exact(gi(b)).coefficients
        bad = PolyZi.make([gi(constant)] + list(good.coeffs[1:]))
        for method in ("exact", "numeric"):
            with pytest.raises(InternalInconsistency, match="constant term"):
                LemnatomicRecord.build(gi(b), bad, method, 0)
