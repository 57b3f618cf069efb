#!/usr/bin/env python3
"""Tabulate the dimension series of the invariant spaces for several form
degrees, cross-checking the enumerative, Chebyshev constant-term and
quadrature routes against each other.

Usage: python scripts/hilbert_table.py [--max-d 4] [--max-m 8] [--nodes P]

--nodes defaults, as in ``ncinv hilbert``, to 256 panels or to the fewest
that make the quadrature exact where that is more; a smaller --nodes is
refused.
"""

import argparse
import sys

from ncinv.hilbert import QUADRATURE_TOL, compare_methods


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-d", type=int, default=4)
    parser.add_argument("--max-m", type=int, default=8)
    parser.add_argument("--nodes", type=int, default=None)
    args = parser.parse_args(argv)

    all_ok = True
    for d in range(1, args.max_d + 1):
        try:
            report = compare_methods(d, args.max_m, nodes=args.nodes)
        except ValueError as exc:  # a refused --nodes, or a float overflow
            parser.error(str(exc))
        print(f"# d = {d}")
        print(report.to_csv())
        status = "ok" if report.ok else "MISMATCH"
        # Each row's gate is QUADRATURE_TOL or its roundoff bound, if larger.
        tol = max(QUADRATURE_TOL, *report.roundoff)
        print(f"# exact methods agree: {report.exact_methods_agree}, "
              f"quadrature within {tol:g}: "
              f"{report.quadrature_within_tolerance} -> {status}")
        print()
        all_ok = all_ok and report.ok
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
