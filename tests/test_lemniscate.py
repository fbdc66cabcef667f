"""Arbitrary-precision numerics: the constant, the sl pair, torsion values,
and the numeric lemnatomic pipeline."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

from conftest import gi, sl_raw
from lemnatomic import lemniscate
from lemnatomic.cli import dispatch
from lemnatomic.errors import InputError, PoleProximity, PrecisionLoss, RoundingUnstable
from lemnatomic.exact import LemnatomicRecord, lemnatomic_exact, record_checksum
from lemnatomic.gaussint import ONE, GaussInt, format_gauss, gauss_divmod, gauss_gcd, is_primary
from lemnatomic.lemniscate import (
    GUARD,
    SERIES_TERMS,
    _TAYLOR,
    _add_fx,
    _add_sl,
    _cdiv,
    _check_distinct,
    _cmul,
    _denominator,
    _expand_complex,
    _expand_real,
    _frac_bits,
    _fx,
    _lookup,
    _omega_fx,
    _orbit_plan,
    _pow4,
    _round_g,
    _sl_fx,
    _sl_table,
    _unit_orbits,
    big_complex,
    lemniscate_constant,
    lemnatomic_numeric,
    pair_defect,
    sl_eval,
    sl_pair_add,
    torsion_points,
    torsion_values,
)
from lemnatomic.residue import phi_norm, residue_ring
from lemnatomic.zipoly import PolyZi

BITS = 256
OMEGA_DIGITS = "1.311028777146059905232419794945559706841377475715811581408410851900395"

# Record checksums of the numeric route at two rungs that reject 256 bits and
# accept 512, frozen from the mpmath evaluation the fixed-point kernel replaced.
ESCALATING = {
    "29": "4d3cbd902b26bc387b52da5ba299b0078ac3028fa72e961552bea9d152c9f3be",
    "-31": "42e97162aa9cfe450f082f5f80385beee0c88efe00436de6128d18776348424d",
}


@functools.lru_cache(maxsize=None)
def _omega(bits):
    """omega = pi / (2 AGM(1, sqrt 2)) by mpmath, rounded to bits bits."""
    with mp.workprec(bits + 2 * GUARD):
        omega = mp.pi / (2 * mp.agm(1, mp.sqrt(2)))
    with mp.workprec(bits):
        return +omega


@functools.lru_cache(maxsize=None)
def _series_coeffs(bits):
    """The Maclaurin coefficients A[0], A[1], ... of sl by mpmath floats at
    bits + GUARD bits, from sl'' = -2 sl^3: (4k+1)(4k) A[k] is -2 times the
    z^(4k-1) coefficient of sl^3.  They run up to the first term worth less
    than 2^-F at |z^4| <= 2^-8."""
    F = _frac_bits(bits)
    with mp.workprec(bits + GUARD):
        A = [mpf(1)]
        S2 = []  # S2[t] = [z^(4t+2)] sl^2
        while (4 * len(A) - 3) * abs(A[-1]) >= mp.ldexp(1, 8 * (len(A) - 1) - F):
            k = len(A)
            m = k - 1
            S2.append(mp.fsum(A[i] * A[m - i] for i in range(m + 1)))
            b = mp.fsum(S2[t] * A[m - t] for t in range(m + 1))
            n = 4 * k - 1
            A.append(-2 * b / ((n + 1) * (n + 2)))
    return tuple(A)


def rand_point(rng, scale=0.4, bits=BITS):
    return big_complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale), bits)


def _pair_add_reference(s1, c1, s2, c2):
    den = 1 + s1 * s1 * s2 * s2
    num = s1 * c2 + s2 * c1
    num_d = c1 * c2 - 2 * s1**3 * s2
    den_d = 2 * s1 * c1 * s2 * s2
    return num / den, (num_d * den - num * den_d) / (den * den)


def _sl_mpmath_reference(z, bits):
    """(sl z, sl' z, halvings) by mpmath floats at bits + GUARD: halve to
    |w| <= 1/4, sum the Maclaurin series term by term, double back by the
    addition law.  The floating evaluation the fixed-point kernel replaced."""
    with mp.workprec(bits + GUARD):
        halvings = 0
        w = z
        while abs(w) > mpf(1) / 4:
            w = w / 2
            halvings += 1
        A = _series_coeffs(bits)
        w4 = w**4
        s = mpf(0)
        c = mpf(0)
        pw = mpc(1)
        for k in range(len(A)):
            s += A[k] * pw
            c += (4 * k + 1) * A[k] * pw
            pw *= w4
        s *= w
        for _ in range(halvings):
            s, c = _pair_add_reference(s, c, s, c)
        return s, c, halvings


def _reduce_mod_true_lattice_reference(z, bits):
    """z reduced modulo 2(1+i)*omega*Z[i] by mpmath floats at the working
    precision, coordinates rounded half toward -infinity.  The floating
    reduction the integer one replaced."""
    om = _omega(bits + GUARD)
    gen = 2 * mpc(om, om)
    w = z / gen
    m = int(mp.ceil(w.real - mpf(1) / 2))
    n = int(mp.ceil(w.imag - mpf(1) / 2))
    return z - gen * mpc(m, n)


class TestLemniscateConstant:
    def test_decimal_expansion(self):
        om = lemniscate_constant(BITS)
        with mp.workprec(BITS + 16):
            assert abs(om.re - mpf(OMEGA_DIGITS)) < mpf(2) ** -220
            assert om.im == 0

    def test_agm_identity(self):
        om = lemniscate_constant(BITS)
        with mp.workprec(BITS + 16):
            ratio = 2 * om.re * mp.agm(1, mp.sqrt(2)) / mp.pi
            assert abs(ratio - 1) < mpf(2) ** -(BITS - 8)

    def test_precision_doubling_stable(self):
        lo = lemniscate_constant(BITS)
        hi = lemniscate_constant(2 * BITS)
        with mp.workprec(2 * BITS):
            assert abs(lo.re - hi.re) < mpf(2) ** -(BITS - 4)

    def test_minimum_precision(self):
        with pytest.raises(InputError):
            lemniscate_constant(32)


class TestSlEval:
    def test_zero(self):
        p = sl_eval(big_complex(0, 0, BITS))
        assert p.s.to_mpc() == 0
        assert p.c.to_mpc() == 1

    def test_value_at_omega(self):
        om = lemniscate_constant(BITS)
        p = sl_eval(big_complex(om.re, 0, BITS))
        with mp.workprec(BITS + 16):
            assert abs(p.s.to_mpc() - 1) < mpf(2) ** -(BITS - 8)

    def test_periodicity_both_generators(self, rng):
        om = lemniscate_constant(BITS)
        with mp.workprec(BITS + 16):
            omv = om.re
            for gen in (mpc(omv, omv), mpc(omv, -omv)):
                for _ in range(20):
                    z = rand_point(rng)
                    base = sl_eval(z).s.to_mpc()
                    shifted = sl_eval(
                        big_complex(z.re + gen.real, z.im + gen.imag, BITS)
                    ).s.to_mpc()
                    assert abs(base - shifted) < mpf(2) ** -200

    def test_raw_lattice_structure(self, rng):
        # sl_eval owes its (1+i)*omega periodicity to argument reduction; the
        # unreduced function has true period 2(1+i)*omega, antiperiod 2*omega,
        # and picks up the quasi-period transform s -> -i/s across (1+i)*omega.
        om = lemniscate_constant(BITS)
        with mp.workprec(BITS + 32):
            omv = om.re
            for _ in range(10):
                z = mpc(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
                s = sl_raw(z, BITS)[0]
                true_period = sl_raw(z + 2 * mpc(omv, omv), BITS)[0]
                assert abs(true_period - s) < mpf(2) ** -200
                anti = sl_raw(z + 2 * omv, BITS)[0]
                assert abs(anti + s) < mpf(2) ** -200
                quasi = sl_raw(z + mpc(omv, omv), BITS)[0]
                assert abs(quasi * s + mpc(0, 1)) < mpf(2) ** -200

    def test_i_scaling_and_oddness(self, rng):
        with mp.workprec(BITS + 16):
            for _ in range(30):
                z = rand_point(rng)
                s = sl_eval(z).s.to_mpc()
                s_rot = sl_eval(big_complex(-z.im, z.re, BITS)).s.to_mpc()
                s_neg = sl_eval(big_complex(-z.re, -z.im, BITS)).s.to_mpc()
                assert abs(s_rot - mpc(0, 1) * s) < mpf(2) ** -200
                assert abs(s_neg + s) < mpf(2) ** -200

    def test_pair_identity(self, rng):
        with mp.workprec(BITS + 16):
            for _ in range(30):
                p = sl_eval(rand_point(rng, scale=0.6))
                assert pair_defect(p) < mpf(2) ** -(BITS - 32)


class TestSlPairAdd:
    def test_neutral(self, rng):
        neutral = sl_eval(big_complex(0, 0, BITS))
        with mp.workprec(BITS + 16):
            for _ in range(10):
                p = sl_eval(rand_point(rng))
                q = sl_pair_add(p, neutral)
                assert abs(q.s.to_mpc() - p.s.to_mpc()) < mpf(2) ** -200

    def test_doubling_formula(self, rng):
        with mp.workprec(BITS + 16):
            for _ in range(20):
                p = sl_eval(rand_point(rng))
                s, c = p.s.to_mpc(), p.c.to_mpc()
                doubled = sl_pair_add(p, p)
                assert abs(doubled.s.to_mpc() - 2 * s * c / (1 + s**4)) < mpf(2) ** -200

    def test_addition_matches_direct_eval(self, rng):
        with mp.workprec(BITS + 16):
            for _ in range(25):
                u, v = rand_point(rng), rand_point(rng)
                lhs = sl_pair_add(sl_eval(u), sl_eval(v))
                direct = sl_eval(big_complex(u.re + v.re, u.im + v.im, BITS))
                assert abs(lhs.s.to_mpc() - direct.s.to_mpc()) < mpf(2) ** -180
                assert abs(lhs.c.to_mpc() - direct.c.to_mpc()) < mpf(2) ** -180

    def test_c_component_vs_finite_difference(self, rng):
        h = mpf(2) ** -24
        with mp.workprec(BITS + 16):
            for _ in range(10):
                z = rand_point(rng)
                c = sl_eval(z).c.to_mpc()
                fwd = sl_eval(big_complex(z.re + h, z.im, BITS)).s.to_mpc()
                bwd = sl_eval(big_complex(z.re - h, z.im, BITS)).s.to_mpc()
                approx = (fwd - bwd) / (2 * h)
                assert abs(approx - c) / abs(c) < mpf(10) ** -10


class TestFixedPointKernel:
    @pytest.mark.parametrize("bits", [256, 512, 1024])
    def test_sl_raw_matches_mpmath_reference(self, bits):
        # Points a*2(1+i)omega + b*2(1-i)omega of the reduced cell of the true
        # period lattice, half of them near its boundary (four halvings) and
        # some one period out (five), kept off the poles by |sl| <= 16.
        rng = random.Random(8 + bits)
        halvings = set()
        with mp.workprec(bits + 64):
            om = _omega(bits + 64)
            g1, g2 = 2 * mpc(om, om), 2 * mpc(om, -om)
            checked = 0
            while checked < 24:
                a, b = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
                if checked % 2:
                    a = rng.choice((-1, 1)) * rng.uniform(0.45, 0.5)
                if checked % 6 == 5:
                    a += 1
                z = a * g1 + b * g2
                s_ref, c_ref, h = _sl_mpmath_reference(z, bits)
                if abs(s_ref) > 16:
                    continue
                s, c = sl_raw(z, bits)
                assert abs(s - s_ref) < mpf(2) ** -bits
                assert abs(c - c_ref) < mpf(2) ** -bits
                halvings.add(h)
                checked += 1
        assert {4, 5} <= halvings

    @pytest.mark.parametrize("b", ["-3", "-3-4i", "13+10i", "-19"])
    def test_torsion_values_match_mpmath_reference(self, b):
        ring = residue_ring(gi(b))
        beta = ring.modulus  # the primary associate, as torsion_values uses
        vals = torsion_values(gi(b), BITS)
        with mp.workprec(BITS + GUARD):
            om = _omega(BITS + GUARD)
            s_gen = mpc(om, om) / mpc(beta.re, beta.im)
            for orbit in _unit_orbits(ring):
                lift = _even_lift(orbit[0], beta)
                z = _reduce_mod_true_lattice_reference(s_gen * mpc(lift.re, lift.im), BITS)
                want = _sl_mpmath_reference(z, BITS)[0]
                for lam in orbit:
                    assert abs(vals[lam].to_mpc() - want) < mpf(2) ** -BITS
                    want *= mpc(0, 1)
        assert vals[gi("0")].to_mpc() == 0

    def test_addition_law_denominator_floor(self):
        # sl(u)^4 = -1 at u = (1+i)*omega/2, so doubling u meets the pole of
        # the addition law at (1+i)*omega.
        om = lemniscate_constant(BITS)
        with mp.workprec(BITS + GUARD):
            half_pole = big_complex(om.re / 2, om.re / 2, BITS)
        p = sl_eval(half_pole)
        with pytest.raises(PrecisionLoss):
            sl_pair_add(p, p)

    def test_pole_floor_on_ints(self):
        # At 32 bits the floor 2^-(bits - GUARD) is 1: wider than the distance
        # omega/sqrt(2) from (1+i)*omega/2 to the pole (1+i)*omega, narrower
        # than the distance omega*sqrt(2) from 0 to every pole.
        with mp.workprec(64 + GUARD):
            om = lemniscate_constant(64).re
            half_pole = big_complex(om / 2, om / 2, 64)
        with pytest.raises(PoleProximity):
            sl_eval(half_pole, precision_bits=32)
        assert sl_eval(big_complex(0, 0, 64), precision_bits=32).s.to_mpc() == 0
        # At 256 bits (1+i)*omega reduces to 0 and omega to itself.
        om = lemniscate_constant(BITS).re
        assert abs(sl_eval(big_complex(om, om, BITS)).s.to_mpc()) < mpf(2) ** -200
        sl_eval(big_complex(om, 0, BITS))

    def test_check_distinct_floor(self):
        F, bits = 300, 256
        floor = 1 << (F - bits // 2)
        _check_distinct([(0, 0), (floor, 0), (0, floor)], F, bits)
        with pytest.raises(PrecisionLoss):
            _check_distinct([(5, 7), (0, 0), (5 + floor - 1, 7)], F, bits)

    @pytest.mark.parametrize("bits", [256, 512, 1024, 2048])
    def test_sl_fx_within_budget(self, bits):
        # Seeded points with |re|, |im| <= 1.3, some near the poles
        # (+-1 +- i)*omega, against the kernel 300 bits finer: each value
        # lies within |sl'(z)| * 2^-(bits + GUARD).
        rng = random.Random(bits)
        F = _frac_bits(bits)
        bound = 13 * 2**F // 10
        for _ in range(20):
            z = (rng.randint(-bound, bound), rng.randint(-bound, bound))
            (sr, si), _ = _sl_fx(z, bits)
            (tr, ti), (cr, ci) = _sl_fx((z[0] << 300, z[1] << 300), bits + 300)
            dr, di = sr - (tr >> 300), si - (ti >> 300)
            assert (dr * dr + di * di) << (2 * (bits + GUARD)) < (cr >> 300) ** 2 + (ci >> 300) ** 2

    # 8192 bits is the stability round of a 4096-bit start.
    @pytest.mark.parametrize("bits", [1, 12, 31, 32, 64, 100, 256, 288, 512, 1000, 1024, 2048, 4096, 8192])
    def test_omega_fx_is_omega_rounded(self, bits):
        assert _omega_fx(bits) == _fx(_omega(bits + GUARD), _frac_bits(bits))

    @pytest.mark.parametrize("bits", [1, 12, 20])
    def test_tiny_precision_is_pole_proximity(self, bits):
        # The floor 2^-(bits - GUARD) is then wider than the reduced cell.
        with pytest.raises(PoleProximity):
            sl_eval(big_complex(0.3, 0.1, 64), precision_bits=bits)


class TestPrecisionRule:
    """One rule for every entry point that takes a precision: below 1 bit is
    an InputError, the class the CLI maps to exit 1."""

    ENTRY_POINTS = {
        "big_complex": lambda bits: big_complex(0.3, 0.1, bits),
        "sl_eval": lambda bits: sl_eval(big_complex(0.3, 0.1, 64), precision_bits=bits),
        "torsion_points": lambda bits: torsion_points(gi("-3"), bits),
        "torsion_values": lambda bits: torsion_values(gi("-3"), bits),
        "lemnatomic_numeric": lambda bits: lemnatomic_numeric(gi("-3"), bits),
    }

    @pytest.mark.parametrize("bits", [0, -3])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_below_one_bit_is_input_error(self, entry, bits):
        with pytest.raises(InputError, match="precision_bits must be positive"):
            self.ENTRY_POINTS[entry](bits)

    @pytest.mark.parametrize("bits", [1, 63])
    def test_numeric_starts_below_64_bits_at_64(self, bits):
        poly, report = lemnatomic_numeric(gi("-1+2i"), bits)
        assert poly[0] == gi("-1+2i")
        assert report.precision_bits == 64


class TestTaylor:
    def test_head(self):
        assert len(_TAYLOR) == SERIES_TERMS + 1
        assert [c for c, _ in _TAYLOR[:5]] == [1, -12, 3024, -4390848, 21224560896]
        assert all(f == math.factorial(4 * k + 1) for k, (_, f) in enumerate(_TAYLOR))

    def test_matches_mpmath_recurrence(self):
        A = _series_coeffs(512)
        assert len(A) > SERIES_TERMS
        with mp.workprec(512 + GUARD):
            for (c, f), a in zip(_TAYLOR, A):
                assert abs(mpf(c) / f - a) <= abs(a) * mpf(2) ** -500

    def test_term_ratio_bounds_the_tail(self, monkeypatch):
        # The module docstring's tail bound: consecutive sl' terms have the
        # ratio |A_(k+1) / A_k| (4k+5) / (4k+1) <= 0.15 for k >= 1, and
        # <= 0.0873 from k = 32, times |w|^4 <= 2^-8.
        monkeypatch.setattr(lemniscate, "SERIES_TERMS", 150)
        T = lemniscate._taylor()
        ratios = [
            Fraction(abs(c1) * f0 * (4 * k + 5), abs(c0) * f1 * (4 * k + 1))
            for k, ((c0, f0), (c1, f1)) in enumerate(zip(T, T[1:]))
        ]
        assert max(ratios[1:]) == Fraction(3, 20)
        assert max(ratios[32:]) <= Fraction(873, 10000)
        c, f = _TAYLOR[-1]
        assert Fraction(abs(c) * (4 * SERIES_TERMS + 1), f) <= Fraction(2) ** lemniscate._TAIL_LOG2


TABLE_BETAS = ["-3", "9", "-11", "13", "17", "-19", "21", "33", "3-6i", "11-2i", "13+10i"]
PRIMARY_BETAS_400 = [
    GaussInt(a, b)
    for a in range(-20, 21)
    for b in range(-20, 21)
    if 1 < a * a + b * b <= 400 and is_primary(GaussInt(a, b))
]


def _is_pole(x, beta):
    """True when x*w, w = (1+i)*omega/beta, is a pole of sl: the poles are
    (1+i)*omega times the odd Gaussian integers, so beta | x with an odd
    quotient."""
    q, rem = gauss_divmod(x, beta)
    return rem.is_zero() and q.is_odd()


def _series_reference(beta, r, bits):
    """(sl r*w, sl' r*w), w = (1+i)*omega/beta, by one series evaluation at
    bits + 96, from the omega the working precision bits carries; its own
    error is far below 2^-(bits + GUARD) even near a pole."""
    kbits = bits + 96
    om = _fx(_omega(bits + GUARD), _frac_bits(kbits))
    g = r * GaussInt(1, 1) * beta.conjugate()
    n = beta.norm()
    return _sl_fx((om * g.re // n, om * g.im // n), kbits)


def _even_lift(lam, beta):
    """The lift of lam (mod beta) with re+im even; exists since beta is odd."""
    if (lam.re + lam.im) % 2 == 0:
        return lam
    return lam + beta


def _unit_orbits_reference(ring):
    """_unit_orbits on GaussInt arithmetic: canonical_rep of i*lam per step
    and a set of the residues seen."""
    seen = set()
    orbits = []
    for lam in ring.representatives():
        if lam == GaussInt(0, 0) or lam in seen:
            continue
        orbit = [lam]
        cur = lam
        for _ in range(3):
            cur = ring.canonical_rep(cur * GaussInt(0, 1))
            orbit.append(cur)
        rep = min(orbit, key=lambda g: (g.re, g.im))
        k = orbit.index(rep)
        orbit = orbit[k:] + orbit[:k]
        seen.update(orbit)
        orbits.append(orbit)
    return orbits


def _orbit_plan_reference(ring, mult):
    """_orbit_plan on GaussInt arithmetic: gauss_divmod for the reduced lift,
    ring.is_invertible per orbit and a dict of every residue's orbit."""
    beta = ring.modulus
    orbits = _unit_orbits_reference(ring)
    plan = []
    for orbit in orbits:
        r = gauss_divmod(_even_lift(orbit[0], beta) * mult, 2 * beta)[1]
        mn = ((r.re + r.im) // 2, (r.re - r.im) // 2)
        plan.append((orbit, mn, ring.is_invertible(orbit[0])))
    K = max(abs(x) for _, mn, _ in plan for x in mn)
    pairs = None
    if beta.im == 0:
        where = {lam: k for k, orbit in enumerate(orbits) for lam in orbit}
        pairs = tuple(
            (i, j)
            for i, (orbit, _, invertible) in enumerate(plan)
            if invertible and (j := where[ring.canonical_rep(orbit[0].conjugate())]) >= i
        )
    return tuple(plan), K, pairs


SMALL_BETAS = [
    GaussInt(a, b)
    for a in range(-15, 16)
    for b in range(-15, 16)
    if (a + b) % 2 and not GaussInt(a, b).is_unit()
]


class TestOrbitPlan:
    def test_matches_gaussint_reference(self):
        # mult = 1 and the first of 2+i, 1+2i, 2 that is invertible mod beta,
        # on each of the 476 beta
        for beta in SMALL_BETAS:
            ring = residue_ring(beta)
            assert _unit_orbits(ring) == _unit_orbits_reference(ring), beta
            candidates = (GaussInt(2, 1), GaussInt(1, 2), GaussInt(2, 0))
            generator = next(g for g in candidates if gauss_gcd(g, beta).is_unit())
            for mult in (ONE, generator):
                assert _orbit_plan(ring, mult) == _orbit_plan_reference(ring, mult), (beta, mult)


def _add_fx_reference(s1, c1, s2, c2, F, bits):
    """The addition law on fixed-point pairs, sl and sl' in one body."""
    q1 = _cmul(s1, s1, F)
    q2 = _cmul(s2, s2, F)
    den = _denominator(_cmul(q1, q2, F), F, bits)
    a = _cmul(s1, c2, F)
    b = _cmul(s2, c1, F)
    num = (a[0] + b[0], a[1] + b[1])
    cc = _cmul(c1, c2, F)
    t = _cmul(_cmul(q1, s1, F), s2, F)
    u = _cmul(_cmul(s1, c1, F), q2, F)
    s = _cdiv(num, den, F)
    v = _cmul(s, u, F)
    c = _cdiv((cc[0] - 2 * t[0] - 2 * v[0], cc[1] - 2 * t[1] - 2 * v[1]), den, F)
    return s, c


class TestSlOnlyAddition:
    @pytest.mark.parametrize("bits", [256, 512])
    def test_sl_half_matches_add_fx(self, bits):
        # Pairs from the series at seeded points with |re|, |im| <= 1.
        rng = random.Random(bits)
        F = _frac_bits(bits)
        one = 1 << F
        for _ in range(30):
            (s1, c1), (s2, c2) = (_sl_fx((rng.randint(-one, one), rng.randint(-one, one)), bits) for _ in range(2))
            want = _add_fx_reference(s1, c1, s2, c2, F, bits)
            assert _add_fx(s1, c1, s2, c2, F, bits) == want
            assert _add_sl(s1, c1, s2, c2, F, bits)[0] == want[0]

    @pytest.mark.parametrize("bits", [256, 512])
    def test_lookup_is_add_fx_s(self, bits):
        # Every (m, n) of a table on a seeded u reads the sl that the full
        # addition law gives, or a rotated entry when m or n is zero.
        rng = random.Random(-bits)
        F = _frac_bits(bits)
        u = (rng.randint(0, 1 << (F - 2)), rng.randint(0, 1 << (F - 2)))
        K = 5
        T = _sl_table(u, K, bits, bits)
        for m, n in itertools.product(range(-K, K + 1), repeat=2):
            (s, c), (t, d) = T[abs(m)], T[abs(n)]
            s = s if m >= 0 else (-s[0], -s[1])
            t = (t[1], -t[0]) if n > 0 else (-t[1], t[0])
            want = t if m == 0 else s if n == 0 else _add_fx_reference(s, c, t, d, F, bits)[0]
            assert _lookup(T, m, n, F, bits) == want

    def test_both_raise_at_the_denominator_floor(self):
        # sl(u)^4 = -1 at u = (1+i)*omega/2: the addition law's denominator
        # vanishes when it doubles u.
        om = lemniscate_constant(BITS)
        with mp.workprec(BITS + GUARD):
            p = sl_eval(big_complex(om.re / 2, om.re / 2, BITS))
        F = _frac_bits(BITS)
        s, c = ((_fx(v.re, F), _fx(v.im, F)) for v in (p.s, p.c))
        with pytest.raises(PrecisionLoss):
            _add_sl(s, c, s, c, F, BITS)
        with pytest.raises(PrecisionLoss):
            _add_fx(s, c, s, c, F, BITS)


def _within_budget(v, want, bits):
    """True when the fixed-point pair v at bits lies within 2^-(bits + GUARD)
    of the pair want at bits + 96."""
    shift = _frac_bits(bits + 96) - _frac_bits(bits)
    dr, di = (v[0] << shift) - want[0], (v[1] << shift) - want[1]
    return dr * dr + di * di < (1 << (_frac_bits(bits + 96) - bits - GUARD)) ** 2


class TestAdditionTable:
    @pytest.mark.parametrize("bits", [256, 512])
    @pytest.mark.parametrize("b", TABLE_BETAS)
    def test_orbit_values_match_series(self, b, bits):
        ring = residue_ring(gi(b))
        beta = ring.modulus
        plan, K, _ = _orbit_plan(ring, ONE)
        for (orbit, (m, n), _), v in zip(plan, lemniscate._orbit_values(beta, plan, K, bits)):
            r = gauss_divmod(_even_lift(orbit[0], beta), 2 * beta)[1]
            assert GaussInt(m + n, m - n) == r
            assert _within_budget(v, _series_reference(beta, r, bits)[0], bits)

    @pytest.mark.parametrize(
        "b, gc", [("-3", "1+i"), ("13", "2+i"), ("3-6i", "2"), ("13+10i", "-1+3i"), ("-19", "5i")]
    )
    def test_generator_class_values_match_series(self, b, gc):
        # torsion_values(beta, generator_class=m) is sl at the even lift of
        # each orbit's first residue times m, reduced mod 2 beta.
        ring = residue_ring(gi(b))
        beta = ring.modulus
        mult = gi(gc)
        vals = torsion_values(gi(b), BITS, generator_class=mult)
        F = _frac_bits(BITS)
        for orbit in _unit_orbits(ring):
            r = gauss_divmod(_even_lift(orbit[0], beta) * mult, 2 * beta)[1]
            want = _series_reference(beta, r, BITS)[0]
            for lam in orbit:
                got = (_fx(vals[lam].re, F), _fx(vals[lam].im, F))
                assert _within_budget(got, want, BITS)
                want = (-want[1], want[0])

    def test_no_pole_on_the_table_or_an_orbit(self):
        # Every point the table on u = (1+i)*w and the orbit sums reach is an
        # even multiple x*w, and a pole is an odd one.  The table on w itself
        # would reach the pole q*w of every rational beta = +-q.
        assert [k for k in range(-9, 10) if _is_pole(GaussInt(k, 0), gi("-3"))] == [-9, -3, 3, 9]
        assert _is_pole(gi("3+6i"), gi("-3")) and not _is_pole(gi("3+3i"), gi("-3"))
        assert _is_pole(gi("-1+2i"), gi("-1+2i")) and not _is_pole(gi("-1-2i"), gi("-1+2i"))
        u = GaussInt(1, 1)
        rational = set()
        for beta in PRIMARY_BETAS_400:
            plan, K, _ = _orbit_plan(residue_ring(beta), ONE)
            assert not any(_is_pole(u * k, beta) for k in range(K + 1))
            lifts = []
            for orbit, (m, n), _ in plan:
                r = gauss_divmod(_even_lift(orbit[0], beta), 2 * beta)[1]
                difference = u * m - u.conjugate() * n
                assert not _is_pole(r, beta) and not _is_pole(difference, beta)
                lifts.append(r)
            assert K <= max(max(abs(r.re), abs(r.im)) for r in lifts)
            if beta.im == 0:
                rational.add(abs(beta.re))
                assert any(_is_pole(GaussInt(r.re, 0), beta) for r in lifts)
        assert {3, 9, 11, 13, 17, 19} <= rational

    def test_orbit_plan_built_once_per_beta(self):
        _orbit_plan.cache_clear()
        lemnatomic_numeric(gi("17"), 64)  # rounds at 64, 128 and 256 bits
        info = _orbit_plan.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    @pytest.mark.parametrize("b", ["-3", "-1+2i", "13", "3-6i"])
    def test_corrupt_table_entry_is_rejected(self, b, monkeypatch):
        # One entry corrupted at every precision, after the table is built.
        # An entry an invertible orbit reads, nudged by 2^-20, leaves no round
        # to accept, so the route ends in RoundingUnstable; no corruption
        # ever yields another Lambda (negating an entry can leave the orbit's
        # value set, and so Lambda, unchanged).
        beta = gi(b)
        want = lemnatomic_exact(beta).coefficients
        plan, K, _ = _orbit_plan(residue_ring(beta), ONE)
        read = {abs(x) for _, mn, inv in plan if inv for x in mn}
        real = lemniscate._sl_table
        monkeypatch.setattr(lemniscate, "PRECISION_CEILING", 1024)
        for k in range(1, K + 1):
            for corrupt in ("nudge", "swap", "negate"):

                def corrupted(w, K_, tbits, bits, k=k, corrupt=corrupt):
                    T = real(w, K_, tbits, bits)
                    (sr, si), c = T[k]
                    if corrupt == "nudge":
                        T[k] = ((sr + (1 << (_frac_bits(tbits) - 20)), si), c)
                    elif corrupt == "swap":
                        T[k] = T[k - 1]
                    else:
                        T[k] = ((-sr, -si), c)
                    return T

                monkeypatch.setattr(lemniscate, "_sl_table", corrupted)
                try:
                    poly, _ = lemnatomic_numeric(beta, BITS)
                except RoundingUnstable:
                    continue
                assert poly == want
                assert not (corrupt == "nudge" and k in read)

    @pytest.mark.parametrize("b", ["-3", "13", "13+10i"])
    def test_corrupt_first_round_escalates(self, b, monkeypatch):
        beta = gi(b)
        K = _orbit_plan(residue_ring(beta), ONE)[1]
        real = lemniscate._sl_table

        def corrupted(w, K_, tbits, bits):
            T = real(w, K_, tbits, bits)
            if bits == BITS:
                (sr, si), c = T[K_]
                T[K_] = ((sr, si + (1 << (_frac_bits(tbits) - 20))), c)
            return T

        monkeypatch.setattr(lemniscate, "_sl_table", corrupted)
        poly, report = lemnatomic_numeric(beta, BITS)
        assert poly == lemnatomic_exact(beta).coefficients
        assert report.escalations == 1
        assert (report.precision_bits, report.stability_bits) == (2 * BITS, 4 * BITS)
        assert K >= 2


RATIONAL_BETAS = [GaussInt(q, 0) for q in range(-31, 32) if abs(q) > 1 and q % 4 == 1]


def _rounded_expansions(beta, bits):
    """G at bits rounded from the real expansion over conjugate pairs and
    from the complex schoolbook product, on the same orbit values: two
    (polynomial, largest rounding error) pairs."""
    ring = residue_ring(beta)
    plan, K, pairs = _orbit_plan(ring, ONE)
    values = lemniscate._orbit_values(beta, plan, K, bits)
    F = _frac_bits(bits)
    fourth = [_pow4(v, F) for (_, _, invertible), v in zip(plan, values) if invertible]
    real = _round_g(_expand_real(pairs, values, F), itertools.repeat(0), F)
    return real, _round_g(*_expand_complex(fourth, F), F)


class TestConjugatePairs:
    @pytest.mark.parametrize("bits", [256, 512])
    @pytest.mark.parametrize("beta", RATIONAL_BETAS, ids=str)
    def test_real_expansion_matches_complex(self, beta, bits):
        (real, real_err), (cplx, cplx_err) = _rounded_expansions(beta, bits)
        if bits == 256 and format_gauss(beta) in ESCALATING:
            # both fail the tolerance, so the route escalates as before
            assert real_err > 2.0**-30 and cplx_err > 2.0**-30
            return
        assert real == cplx == lemnatomic_exact(beta).coefficients
        assert real_err < 2.0**-30 and cplx_err < 2.0**-30

    @pytest.mark.parametrize("beta", RATIONAL_BETAS, ids=str)
    def test_pairing_is_an_involution_on_conjugate_orbits(self, beta):
        assert is_primary(beta)
        ring = residue_ring(beta)
        plan, _, pairs = _orbit_plan(ring, ONE)
        partner = {}
        for i, j in pairs:
            assert i <= j and i not in partner and j not in partner
            partner[i], partner[j] = j, i
            for lam in plan[i][0]:
                assert ring.canonical_rep(lam.conjugate()) in plan[j][0]
        assert sorted(partner) == [k for k, (_, _, invertible) in enumerate(plan) if invertible]
        assert all(partner[partner[k]] == k for k in partner)
        # the self-conjugate count has the parity of phi_norm(beta) / 4, even
        assert sum(i == j for i, j in pairs) % 2 == 0
        assert 2 * len(pairs) - sum(i == j for i, j in pairs) == phi_norm(beta) // 4

    @pytest.mark.parametrize("b", TABLE_BETAS)
    def test_only_rational_betas_are_paired(self, b):
        beta = gi(b)
        pairs = _orbit_plan(residue_ring(beta), ONE)[2]
        assert (pairs is None) == (beta.im != 0)

    @pytest.mark.parametrize("b", ["9", "-11", "13"])
    def test_wrong_partner_is_rejected(self, b, monkeypatch):
        # One conjugate pair made to hold another invertible orbit (itself
        # included) at every precision: no round is accepted, and the route
        # never returns another Lambda.
        beta = gi(b)
        plan, K, pairs = _orbit_plan(residue_ring(beta), ONE)
        at = next(n for n, (i, j) in enumerate(pairs) if i < j)
        i, j = pairs[at]
        others = [k for k, (_, _, invertible) in enumerate(plan) if invertible and k != j]
        monkeypatch.setattr(lemniscate, "PRECISION_CEILING", 1024)
        for k in others:
            wrong = pairs[:at] + ((i, k),) + pairs[at + 1 :]
            monkeypatch.setattr(lemniscate, "_orbit_plan", lambda ring, mult, wrong=wrong: (plan, K, wrong))
            with pytest.raises(RoundingUnstable):
                lemnatomic_numeric(beta, BITS)


class TestTorsion:
    def test_count_and_zero(self):
        vals = torsion_values(gi("-3"), BITS)
        assert len(vals) == 9
        assert vals[gi("0")].to_mpc() == 0

    def test_pairwise_distinct(self):
        vals = torsion_values(gi("-3"), BITS)
        with mp.workprec(BITS + 24):
            gaps = [
                abs(a.to_mpc() - b.to_mpc())
                for a, b in itertools.combinations(vals.values(), 2)
            ]
        assert min(gaps) > mpf(2) ** -100

    def test_i_lambda_scaling(self):
        ring = residue_ring(gi("-3"))
        vals = torsion_values(gi("-3"), BITS)
        with mp.workprec(BITS + 24):
            for lam, v in vals.items():
                rotated = vals[ring.canonical_rep(lam * gi("i"))]
                assert abs(rotated.to_mpc() - mpc(0, 1) * v.to_mpc()) < mpf(2) ** -200

    def test_points_satisfy_lattice_relation(self):
        om = lemniscate_constant(BITS)
        pts = torsion_points(gi("-3"), BITS)
        assert len(pts) == 9
        with mp.workprec(BITS + 24):
            period = mpc(om.re, om.re)
            for pt in pts:
                scaled = mpc(-3, 0) * pt.z.to_mpc() / period
                assert abs(scaled - mp.nint(scaled.real) - mpc(0, 1) * mp.nint(scaled.imag)) < mpf(
                    2
                ) ** -200

    def test_generator_class_permutes_values(self):
        base = torsion_values(gi("-3"), BITS)
        moved = torsion_values(gi("-3"), BITS, generator_class=gi("1+i"))
        with mp.workprec(BITS + 24):
            key = lambda z: (z.real, z.imag)
            a = sorted((v.to_mpc() for v in base.values()), key=key)
            b = sorted((v.to_mpc() for v in moved.values()), key=key)
            assert all(abs(x - y) < mpf(2) ** -200 for x, y in zip(a, b))

    def test_noninvertible_generator_rejected(self):
        with pytest.raises(InputError):
            torsion_values(gi("-3"), BITS, generator_class=gi("3"))


class TestLemnatomicNumeric:
    def test_quartic_shape(self):
        poly, report = lemnatomic_numeric(gi("-1+2i"), BITS)
        assert poly.degree() == 4
        assert poly.is_monic()
        assert poly[1].is_zero() and poly[2].is_zero() and poly[3].is_zero()
        assert poly[0] == gi("-1+2i")
        assert report.precision_bits >= BITS

    def test_degree_eight(self):
        poly, _ = lemnatomic_numeric(gi("-3"), BITS)
        assert poly.degree() == phi_norm(gi("-3")) == 8

    def test_low_precision_still_converges(self):
        poly, report = lemnatomic_numeric(gi("-1+2i"), 64)
        assert poly[0] == gi("-1+2i")
        assert report.max_rounding_error < 2.0**-30
        assert report.stability_bits > report.precision_bits

    def test_escalation_computes_each_precision_once(self, monkeypatch):
        seen = []
        real = lemniscate._numeric_poly_at

        def counted(beta, ring, bits):
            seen.append(bits)
            return real(beta, ring, bits)

        monkeypatch.setattr(lemniscate, "_numeric_poly_at", counted)
        poly, report = lemnatomic_numeric(gi("17"), 64)
        assert len(seen) == len(set(seen))
        assert seen == [64, 128, 256]
        assert report.escalations == 1
        assert (report.precision_bits, report.stability_bits) == (128, 256)
        assert poly == lemnatomic_exact(gi("17")).coefficients

    def test_precision_failure_is_not_recomputed(self, monkeypatch):
        seen = []
        real = lemniscate._numeric_poly_at

        def failing_at_128(beta, ring, bits):
            seen.append(bits)
            if bits == 128:
                raise PrecisionLoss("injected")
            return real(beta, ring, bits)

        monkeypatch.setattr(lemniscate, "_numeric_poly_at", failing_at_128)
        poly, report = lemnatomic_numeric(gi("-1+2i"), 64)
        assert seen == [64, 128, 256, 512]
        assert (report.precision_bits, report.escalations) == (256, 2)
        assert poly[0] == gi("-1+2i")

    # Lambda_-3 = X^8 + 6X^4 - 3; each rounding below is stable at every
    # precision but fails one of _validate_numeric's checks.
    @pytest.mark.parametrize(
        "coeffs, message",
        [
            ([-3, 0, 0, 0, 1], "degree 4 != phi_norm 8"),
            ([-3, 0, 0, 0, 6, 0, 0, 0, 2], "not monic"),
            ([0, 0, 0, 0, 6, 0, 0, 0, 1], "zero constant term"),
        ],
        ids=["degree", "monic", "constant"],
    )
    def test_stable_but_invalid_rounding_is_rejected(self, coeffs, message, monkeypatch, capsys):
        wrong = PolyZi.make(coeffs)
        monkeypatch.setattr(lemniscate, "_numeric_poly_at", lambda beta, ring, bits: (wrong, 0.0))
        with pytest.raises(RoundingUnstable, match=message):
            lemnatomic_numeric(gi("-3"), 64)
        assert dispatch(["lemnatomic", "-3", "--method", "numeric"]) == 3
        assert "precision failure" in capsys.readouterr().err

    def test_start_above_the_ceiling_fails_before_any_round(self, monkeypatch):
        seen = []
        monkeypatch.setattr(lemniscate, "_numeric_poly_at", lambda beta, ring, bits: seen.append(bits))
        with pytest.raises(InputError, match="ceiling of 4096 bits"):
            lemnatomic_numeric(gi("-1+2i"), 8192)
        monkeypatch.setattr(lemniscate, "PRECISION_CEILING", 128)  # read at call time
        with pytest.raises(InputError, match="ceiling of 128 bits"):
            lemnatomic_numeric(gi("-1+2i"), 256)
        assert seen == []

    def test_top_rung_matches_exact_without_escalation(self):
        poly, report = lemnatomic_numeric(gi("-19"), BITS)
        assert poly.degree() == 360
        assert poly == lemnatomic_exact(gi("-19")).coefficients
        assert report.precision_bits == 256
        assert report.escalations == 0

    @pytest.mark.parametrize("b", sorted(ESCALATING))
    def test_rejects_256_and_accepts_512(self, b):
        beta = gi(b)
        poly, report = lemnatomic_numeric(beta, BITS)
        assert (report.precision_bits, report.escalations, report.stability_bits) == (512, 1, 1024)
        assert record_checksum(beta, poly) == ESCALATING[b]

    @pytest.mark.slow
    def test_numeric_37_matches_exact(self):
        poly, report = lemnatomic_numeric(gi("37"), BITS)
        assert poly.coeffs == lemnatomic_exact(gi("37")).coefficients.coeffs
        assert report.precision_bits == 512

    @pytest.mark.slow
    def test_numeric_minus_43_accepted_at_1024(self):
        beta = gi("-43")
        poly, report = lemnatomic_numeric(beta, BITS)
        assert (report.precision_bits, report.stability_bits) == (1024, 2048)
        assert report.escalations == 2
        record = LemnatomicRecord.build(beta, poly, "numeric", report.precision_bits)
        assert record.degree == 1848 and record.coefficients[0] == beta

    def test_ceiling_round_at_4096(self):
        beta = gi("-3")
        poly, report = lemnatomic_numeric(beta, 4096)
        assert poly == lemnatomic_exact(beta).coefficients
        assert (report.precision_bits, report.stability_bits, report.escalations) == (4096, 8192, 0)

    def test_non_primary_input_normalized(self):
        via_three, _ = lemnatomic_numeric(gi("3"), BITS)
        via_primary, _ = lemnatomic_numeric(gi("-3"), BITS)
        assert via_three == via_primary

    def test_unit_and_even_rejected(self):
        with pytest.raises(InputError):
            lemnatomic_numeric(gi("1"), BITS)
        with pytest.raises(InputError):
            lemnatomic_numeric(gi("1+i"), BITS)

