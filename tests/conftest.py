"""Shared fixtures: the frozen polynomial corpus, a seeded RNG and sl as
mpmath numbers.

Corpus values were computed once by the exact pipeline, cross-checked against
the numeric pipeline, and frozen here as oracles; tests compare fresh
computations against these literals, never the other way around.
"""

import random
from math import gcd

import pytest
from mpmath import mp
from mpmath.libmp import from_man_exp

from lemnatomic.gaussint import GaussInt, parse_gauss
from lemnatomic.lemniscate import _frac_bits, _fx, _sl_fx
from lemnatomic.zipoly import PolyZi

SEED = 20260814


def gi(text: str) -> GaussInt:
    return parse_gauss(text)


def sl_raw(z, bits: int) -> tuple:
    """(sl z, sl' z) for an mpc z by the fixed-point kernel, with no lattice
    reduction; |z| should be cell-sized."""
    F = _frac_bits(bits)
    pairs = _sl_fx((_fx(z.real, F), _fx(z.imag, F)), bits)
    return tuple(mp.make_mpc((from_man_exp(re, -F), from_man_exp(im, -F))) for re, im in pairs)


def sparse_poly(degree: int, entries: dict) -> PolyZi:
    coeffs = [GaussInt(0, 0)] * (degree + 1)
    for k, lit in entries.items():
        coeffs[k] = gi(lit)
    return PolyZi.make(coeffs)


# beta literal -> (degree, {exponent: coefficient literal}); omitted exponents are 0
CORPUS_LEMNATOMIC = {
    "-1+2i": (4, {0: "-1+2i", 4: "1"}),
    "-1-2i": (4, {0: "-1-2i", 4: "1"}),
    "-3": (8, {0: "-3", 4: "6", 8: "1"}),
    # (-1+2i)^2 primary-normalized
    "-3-4i": (
        20,
        {0: "-1+2i", 4: "-19+8i", 8: "110-20i", 12: "-46+72i", 16: "-45-30i", 20: "1"},
    ),
    # (-3)*(-1+2i)
    "3-6i": (
        32,
        {
            0: "1",
            4: "8-32i",
            8: "348+256i",
            12: "248-544i",
            16: "710+768i",
            20: "-2120+416i",
            24: "1116-1024i",
            28: "-56+160i",
            32: "1",
        },
    ),
}

# all-torsion polynomials T_beta for the two smallest corpus members
CORPUS_ALL_TORSION = {
    "-1+2i": (5, {1: "-1+2i", 5: "1"}),
    "-3": (9, {1: "-3", 5: "6", 9: "1"}),
}

CORPUS_BETAS = tuple(gi(b) for b in CORPUS_LEMNATOMIC)


def deflate(q: int, terms) -> tuple:
    """(k, g, e) with f = X^k * g(X^e), g(0) != 0 and e = gcd(d, q - 1), d the
    gcd of the exponents of f / X^k, for nonzero f over F_q given by its
    nonzero terms (j, c), exponents ascending: the deflation gfq._root_status
    runs before its power, as a tuple the tests can compare."""
    k = terms[0][0]
    e = gcd(q - 1, *[j - k for j, _ in terms])
    g = [0 * terms[0][1]] * ((terms[-1][0] - k) // e + 1)
    for j, c in terms:
        g[(j - k) // e] = c
    return k, tuple(g), e


@pytest.fixture
def rng():
    return random.Random(SEED)


@pytest.fixture
def corpus_polys():
    return {
        gi(b): sparse_poly(deg, entries)
        for b, (deg, entries) in CORPUS_LEMNATOMIC.items()
    }
