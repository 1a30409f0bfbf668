#!/usr/bin/env python3
"""Run the spectral-vs-tiling report over a list of moduli.

Prints one JSON line per modulus with class counts, the disagreement count
(expected 0 for every modulus up to 32) and the seconds the report took.
"""

import argparse
import json
import time

from idemzeros.fuglede import fuglede_report
from idemzeros.zn_core import ModulusContext


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--moduli", default="4,8,9,12,16,18,20,24,25,27,28,30")
    parser.add_argument("--max-size", type=int, default=None)
    args = parser.parse_args()
    for N in (int(t) for t in args.moduli.split(",")):
        start = time.monotonic()
        report = fuglede_report(ModulusContext.of(N), max_set_size=args.max_size)
        print(
            json.dumps(
                {
                    "N": N,
                    "classes": len(report.classes),
                    "disagreements": len(report.disagreements),
                    "spectral_classes": sum(1 for v in report.classes if v.spectral),
                    "seconds": round(time.monotonic() - start, 2),
                }
            )
        )


if __name__ == "__main__":
    main()
