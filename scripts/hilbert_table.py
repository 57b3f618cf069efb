#!/usr/bin/env python3
"""Tabulate the dimension series of the invariant spaces for several form
degrees, cross-checking the enumerative, Chebyshev-moment, and quadrature
routes against each other.

Usage: python scripts/hilbert_table.py [--max-d 4] [--max-m 8] [--nodes 256]
"""

import argparse
import sys

from ncinv.hilbert import QUADRATURE_TOL, compare_methods


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-d", type=int, default=4)
    parser.add_argument("--max-m", type=int, default=8)
    parser.add_argument("--nodes", type=int, default=256)
    args = parser.parse_args(argv)

    all_ok = True
    for d in range(1, args.max_d + 1):
        report = compare_methods(d, args.max_m, nodes=args.nodes)
        print(f"# d = {d}")
        print(report.to_csv())
        status = "ok" if report.ok else "MISMATCH"
        print(f"# exact methods agree: {report.exact_methods_agree}, "
              f"quadrature within {QUADRATURE_TOL:g}: "
              f"{report.quadrature_within_tolerance} -> {status}")
        print()
        all_ok = all_ok and report.ok
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
