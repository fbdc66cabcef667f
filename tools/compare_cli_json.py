"""Compare the scan, single-prime and exact-route commands' --json output between two source trees.

    python3 tools/compare_cli_json.py OLD_SRC NEW_SRC [--max-norm 30000]

The scan commands run at the norm bound; ``reduce``, ``split-test`` and
``orbit-check`` (which runs ``factor_degrees``) run at the split prime -1+2i
and the inert primes -3 and -7; ``lemnatomic BETA --method exact`` runs on
the exact ladder of the benchmark plus 13, 17, -19 and 33.

OLD_SRC and NEW_SRC are directories holding the ``lemnatomic`` package (the
``src`` directory of two checkouts).  Each command runs in a fresh
interpreter on either tree; the line per command gives both wall times and
whether stdout and the exit code are identical byte for byte.  The exit
status is 1 when any command differs.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time

# (scan polynomial, beta of the criterion evidence)
POLYS = (
    ("lemnatomic:-3", "-3"),
    ("lemnatomic:-3-4i", "-3-4i"),
    ("lemnatomic:3-6i", "3-6i"),
    ("coeffs:-105,0,1", "-3"),
    ("coeffs:-2,0,0,1", "-3"),  # X^3 - 2 deflates only at p = 1 mod 3
    ("coeffs:3,0,5,0,1", "-3"),  # X^4 + 5X^2 + 3 loses its X^2 term above 5
    ("coeffs:5,1,0,1", "-3"),  # X^3 + X + 5 has a root at 0 above 5
)
PROP1_BETAS = ("-3", "-3-4i", "3-6i")
SINGLE_PRIMES = ("-1+2i", "-3", "-7")  # one split prime, two inert ones
SINGLE_POLYS = ("lemnatomic:-3", "coeffs:-2,0,0,1")
ORBIT_BETAS = ("-1-2i", "5+4i")  # divisible by none of SINGLE_PRIMES
EXACT_BETAS = ("-1+2i", "-3", "-3-4i", "3-6i", "9", "-11", "11-2i", "13", "17", "-19", "33")


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
            ["density", poly, *bound],
        ]
    out += [["verify-prop1", beta, *bound] for beta in PROP1_BETAS]
    for pi in SINGLE_PRIMES:
        out += [[cmd, poly, pi, "--json"] for cmd in ("reduce", "split-test") for poly in SINGLE_POLYS]
        out += [["orbit-check", beta, pi, "--json"] for beta in ORBIT_BETAS]
    out += [["lemnatomic", beta, "--method", "exact", "--json"] for beta in EXACT_BETAS]
    return out


def run(src: str, argv: list) -> tuple:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "lemnatomic.cli", *argv], env=env, capture_output=True, check=False
    )
    return done.returncode, done.stdout, time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--max-norm", type=int, default=30000)
    args = parser.parse_args()
    differ = 0
    for argv in commands(args.max_norm):
        old_code, old_out, old_s = run(args.old_src, argv)
        new_code, new_out, new_s = run(args.new_src, argv)
        same = (old_code, old_out) == (new_code, new_out)
        differ += not same
        verdict = "same" if same else "DIFFERS"
        print(f"{verdict:7} {old_s:6.2f}s {new_s:6.2f}s  exit {old_code}/{new_code}  {' '.join(argv)}")
    print(f"{differ} of {len(commands(args.max_norm))} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
