#!/usr/bin/env python3
"""Show how the Molien-integral quadrature error behaves under node
doubling, against the exact Chebyshev constant-term values.

The integrand is a trigonometric polynomial, so once the panels resolve its
highest harmonic the error collapses to roundoff; before that point every
doubling at least halves it.  The estimate column for p panels is
max |Q_p - Q_2p| over m, the node-doubling estimate of the error.

Usage: python scripts/quadrature_convergence.py [--max-d 4] [--max-m 8]
"""

import argparse
import sys

from ncinv.hilbert import dims_by_chebyshev, dims_by_quadrature


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-d", type=int, default=4)
    parser.add_argument("--max-m", type=int, default=8)
    parser.add_argument("--max-panels", type=int, default=1024)
    args = parser.parse_args(argv)

    for d in range(1, args.max_d + 1):
        exact = dims_by_chebyshev(d, args.max_m).dims
        print(f"# d = {d}")
        print("panels,max_abs_err,estimate")
        # Each row of the ladder is computed once: Q_2p is the next row's Q_p.
        panels = 1
        coarse = dims_by_quadrature(d, args.max_m, panels).dims
        while panels <= args.max_panels:
            fine = dims_by_quadrature(d, args.max_m, 2 * panels).dims
            err = max(abs(a - b) for a, b in zip(coarse, exact))
            estimate = max(abs(a - b) for a, b in zip(coarse, fine))
            print(f"{panels},{err:.3e},{estimate:.3e}")
            panels *= 2
            coarse = fine
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
