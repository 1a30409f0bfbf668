#!/usr/bin/env python3
"""Sweep sampling-pattern designs over periods and fragment sets.

For each fragment set, designs the smallest pattern at every feasible period
and reports the relative density |J|/N.  The density trend across periods is
reported, not asserted: larger periods usually allow sparser patterns, but
this is an empirical observation, printed for inspection.
"""

import argparse
import json

from idemzeros.errors import DomainError
from idemzeros.fourier import idempotent_from_spectrum, zero_set
from idemzeros.sampling import FragmentSet, design_pattern, required_zero_set


def sweep(fragment_sets, periods):
    for fragments in fragment_sets:
        F = FragmentSet.of(fragments)
        rows = []
        for N in periods:
            if N <= max(F.fragments) + 1:
                continue
            try:
                result = design_pattern(F, N)
            except DomainError as exc:  # oracle guard or no feasible pattern
                rows.append({"N": N, "error": str(exc)})
                continue
            J = result.pattern.offsets
            zeros = zero_set(idempotent_from_spectrum(J)).zero_set
            rows.append(
                {
                    "N": N,
                    "J": list(J.members),
                    "density": len(J) / N,
                    "required_zeros": list(required_zero_set(F, N).members),
                    "realized_zeros": list(zeros.members),
                }
            )
        yield {"fragments": list(F.fragments), "designs": rows}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fragments",
        nargs="+",
        default=["0,2", "0,1,3", "0,3,5"],
        help="comma-separated fragment sets",
    )
    parser.add_argument(
        "--periods",
        default="4,8,9,12,16,18,20,24,27,30,32,36,40,48,60,64",
        help="comma-separated candidate periods N",
    )
    args = parser.parse_args()
    fragment_sets = [tuple(int(t) for t in f.split(",")) for f in args.fragments]
    periods = [int(t) for t in args.periods.split(",")]
    for record in sweep(fragment_sets, periods):
        print(json.dumps(record))
        densities = [r["density"] for r in record["designs"] if "density" in r]
        if densities and densities != sorted(densities, reverse=True):
            print(
                json.dumps(
                    {
                        "note": "density not monotone over periods",
                        "fragments": record["fragments"],
                        "densities": densities,
                    }
                )
            )


if __name__ == "__main__":
    main()
