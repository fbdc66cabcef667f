"""Compare the scan, class, single-prime, exact-route and numeric-route commands' output and cache files between two source trees.

    python3 tools/compare_cli_json.py OLD_SRC NEW_SRC [--max-norm 30000]

The scan commands run at the norm bound on the lemnatomic polynomials of
-3, -3-4i, 3-6i and 9 (degree 72), on four integer polynomials, on
X^4 + 21X^2 + 2, whose X^2 term vanishes at the inert primes 3 and 7, and on
X^8 + (4+i)X^4 + 1, whose X^4 term vanishes at 1-4i but not at its
conjugate 1+4i; so do the class reports ``prop2-evidence`` and
``verify-theorem`` in both normalizations, and ``verify-prop1`` on -3,
-3-4i, 3-6i, 9, -11 (degree 120) and 13+10i (degree 268, whose
discriminant took about 55 s as a Sylvester determinant and takes about
1 s by the modular resultant); ``scan-splitting`` also runs on the
lemnatomic polynomial of -3-4i at norm 10^6 whatever the norm bound (78 437
primes, about 5 s on one core), so that the root scan is cut into as many
ranges as the host has CPUs; ``primes`` lists the prime walk at the
norm bound, with and without ``--include-even``; ``reduce``, ``split-test`` and
``orbit-check`` (which runs ``factor_degrees``) run at the split prime -1+2i
and the inert primes -3 and -7, ``reduce`` and ``split-test`` on the
lemnatomic polynomials of -3 and -3-4i (whose residues at -3 and -7 have
nonzero imaginary parts) and on X^3 - 2; ``primary`` and ``factor`` run on 3i, -7,
2+i and 45; ``lemnatomic BETA --method exact`` runs on
the exact ladder of the benchmark plus 13, 17, -19, 29 (the product of the
split primes 5 +/- 2i), 33, -31 (a prime whose halves recurse through even
maps), 19+10i, 15, 21, 27 and 45, which take 2, 1, 2 and 3 composite steps
from a cofactor's polynomial at a prime map, -43 (N = 1849, a
prime whose map's certificate packs the widest slots, about 2 s), 63 and 75
(N = 3969 and 5625, about 9 and 27 s while each composite was one composed
map), 5+10i = (-1+2i)(-1-2i)^2 (N = 125), one step with a division by the
cofactor's polynomial and one, at -1-2i, without, and 15+6i, the inert
prime 3 times a split one (N = 261); ``unitgroup``
runs on the same beta up to -43 (among them the inert prime power 27 and the mixed 45)
plus -7, 63 and 125.
The product formula's unreduced pair can share a factor
(t - 1)^a (t + 1)^b, which the exact route strips: t^2 - 1 under -19, and
t - 1, (t - 1)^2 and (t - 1)^3 (t + 1) under 19+10i.
``lemnatomic BETA --method numeric`` runs on the benchmark's numeric ladder,
on the rational beta 29, -31 and 45 (29 and -31 escalate once), for
which a table on the multiples of w = (1+i)*omega/beta would reach the pole
|beta|*w, on 21, composite with non-invertible residues, and 37, a split
rational prime, whose G is expanded over conjugate pairs as for every
rational beta, and on -43, accepted at 1024 bits after two escalations
(about 1.5 s); on 5+10i, whose prime factor -1-2i is repeated (N = 125), on
15+6i, the inert prime 3 times a split one (N = 261), and on 13+10i at
``--precision-bits 1024``; ``--method both`` on -3 and -19,
``--precision-bits 64`` on -19 (which escalates), ``--precision-bits 4096`` on
-3, whose stability round runs at 8192 bits, and ``--precision-bits 8192`` on
-3, above the ceiling (exit 1).
``lemnatomic BETA --method exact --cache-dir DIR`` runs twice on -1+2i and
-3-4i, a miss that writes the cache file and then a hit that reads it, and
``lemnatomic -3 --method both --cache-dir DIR`` once.
All of these print JSON, 186 commands in all.  Seven commands that print
a polynomial also run once in human form, the reports at the norm bound:
``lemnatomic -3``, ``scan-splitting``, ``semisplit``, ``prop2-evidence``
and ``density`` on lemnatomic:-3, ``verify-theorem`` on X^2 - 105, and
``reduce lemnatomic:-3-4i -7``.  That makes 193 commands.

OLD_SRC and NEW_SRC are directories holding the ``lemnatomic`` package (the
``src`` directory of two checkouts).  Each command runs in a fresh
interpreter on either tree, and each tree has its own fresh cache
directory; the line per command gives both wall times, start-up included,
and whether stdout, the exit code and every file in the cache directory
are identical byte for byte.  The exit status is 1 when any command differs.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# (scan polynomial, beta of the criterion evidence)
POLYS = (
    ("lemnatomic:-3", "-3"),
    ("lemnatomic:-3-4i", "-3-4i"),
    ("lemnatomic:3-6i", "3-6i"),
    ("lemnatomic:9", "9"),
    ("coeffs:-105,0,1", "-3"),
    ("coeffs:-2,0,0,1", "-3"),  # X^3 - 2 deflates only at p = 1 mod 3
    ("coeffs:3,0,5,0,1", "-3"),  # X^4 + 5X^2 + 3 loses its X^2 term above 5
    ("coeffs:5,1,0,1", "-3"),  # X^3 + X + 5 has a root at 0 above 5
    ("coeffs:2,0,21,0,1", "-3"),  # X^4 + 21X^2 + 2 loses its X^2 term at the inert 3 and 7
    ("coeffs:1,0,0,0,4+i,0,0,0,1", "-3"),  # X^8 + (4+i)X^4 + 1 loses its X^4 term at 1-4i
)
PROP1_BETAS = ("-3", "-3-4i", "3-6i", "9", "-11", "13+10i")
WIDE_SCAN = ("lemnatomic:-3-4i", 10**6)  # a root scan wide enough to use every CPU
SINGLE_PRIMES = ("-1+2i", "-3", "-7")  # one split prime, two inert ones
SINGLE_POLYS = ("lemnatomic:-3", "lemnatomic:-3-4i", "coeffs:-2,0,0,1")
ORBIT_BETAS = ("-1-2i", "5+4i")  # divisible by none of SINGLE_PRIMES
EXACT_BETAS = (
    "-1+2i", "-3", "-3-4i", "3-6i", "9", "-11", "11-2i", "13", "17", "-19", "29", "33", "-31",
    "19+10i", "15", "21", "27", "45", "-43",
)
UNIT_GROUP_BETAS = EXACT_BETAS + ("-7", "63", "125")
EXACT_COMPOSITES = ("63", "75", "5+10i", "15+6i")
NUMERIC_BETAS = (
    "-1+2i", "-3", "-3-4i", "3-6i", "9", "-11", "11-2i", "13", "13+10i", "17", "-19", "21", "29", "-31",
    "37", "45", "-43",
)
NORMALIZE_INPUTS = ("3i", "-7", "2+i", "45")
CACHED_BETAS = ("-1+2i", "-3-4i")
CACHE_DIR = "{cache}"  # stands for the tree's own cache directory


def commands(max_norm: int) -> list:
    bound = ["--max-norm", str(max_norm), "--json"]
    out = []
    for poly, beta in POLYS:
        out += [
            ["scan-splitting", poly, *bound],
            ["semisplit", poly, *bound],
            ["prop2-evidence", poly, "--beta", beta, *bound],
            ["prop2-evidence", poly, "--beta", beta, "--normalization", "raw", *bound],
            ["verify-theorem", poly, *bound],
            ["verify-theorem", poly, "--normalization", "raw", *bound],
            ["density", poly, *bound],
        ]
    out += [["verify-prop1", beta, *bound] for beta in PROP1_BETAS]
    out += [["scan-splitting", WIDE_SCAN[0], "--max-norm", str(WIDE_SCAN[1]), "--json"]]
    out += [["primes", *bound], ["primes", "--include-even", *bound]]
    for pi in SINGLE_PRIMES:
        out += [[cmd, poly, pi, "--json"] for cmd in ("reduce", "split-test") for poly in SINGLE_POLYS]
        out += [["orbit-check", beta, pi, "--json"] for beta in ORBIT_BETAS]
    out += [[cmd, z, "--json"] for z in NORMALIZE_INPUTS for cmd in ("primary", "factor")]
    out += [["lemnatomic", beta, "--method", "exact", "--json"] for beta in EXACT_BETAS + EXACT_COMPOSITES]
    out += [["unitgroup", beta, "--json"] for beta in UNIT_GROUP_BETAS]
    out += [["lemnatomic", beta, "--method", "numeric", "--json"] for beta in NUMERIC_BETAS]
    out += [["lemnatomic", beta, "--method", "both", "--json"] for beta in ("-3", "-19")]
    out += [
        ["lemnatomic", "5+10i", "--method", "numeric", "--json"],
        ["lemnatomic", "15+6i", "--method", "numeric", "--json"],
        ["lemnatomic", "13+10i", "--method", "numeric", "--precision-bits", "1024", "--json"],
        ["lemnatomic", "-19", "--method", "numeric", "--precision-bits", "64", "--json"],
        ["lemnatomic", "-3", "--method", "numeric", "--precision-bits", "4096", "--json"],
        ["lemnatomic", "-3", "--method", "numeric", "--precision-bits", "8192", "--json"],
    ]
    for beta in CACHED_BETAS:  # a miss, then a hit
        out += [["lemnatomic", beta, "--method", "exact", "--json", "--cache-dir", CACHE_DIR]] * 2
    out += [["lemnatomic", "-3", "--method", "both", "--json", "--cache-dir", CACHE_DIR]]
    norm = ["--max-norm", str(max_norm)]
    out += [
        ["lemnatomic", "-3"],
        ["scan-splitting", "lemnatomic:-3", *norm],
        ["semisplit", "lemnatomic:-3", *norm],
        ["prop2-evidence", "lemnatomic:-3", "--beta", "-3", *norm],
        ["verify-theorem", "coeffs:-105,0,1", *norm],
        ["density", "lemnatomic:-3", *norm],
        ["reduce", "lemnatomic:-3-4i", "-7"],
    ]
    return out


def run(src: str, argv: list, cache_dir: str) -> tuple:
    """Exit code, stdout and the cache directory's files after the command, and its wall time."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    argv = [cache_dir if arg == CACHE_DIR else arg for arg in argv]
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "lemnatomic.cli", *argv], env=env, capture_output=True, check=False
    )
    elapsed = time.perf_counter() - start
    files = {path.name: path.read_bytes() for path in sorted(Path(cache_dir).iterdir())}
    return done.returncode, done.stdout, files, elapsed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--max-norm", type=int, default=30000)
    args = parser.parse_args()
    differ = 0
    with tempfile.TemporaryDirectory() as old_cache, tempfile.TemporaryDirectory() as new_cache:
        for argv in commands(args.max_norm):
            *old, old_s = run(args.old_src, argv, old_cache)
            *new, new_s = run(args.new_src, argv, new_cache)
            same = old == new
            differ += not same
            verdict = "same" if same else "DIFFERS"
            print(f"{verdict:7} {old_s:6.2f}s {new_s:6.2f}s  exit {old[0]}/{new[0]}  {' '.join(argv)}")
    print(f"{differ} of {len(commands(args.max_norm))} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
