#!/usr/bin/env python3
"""Reference-approximation quality of the causality tests.

For each sample size n (with m = n/2, l = n), compares the partial
bootstrap, partial permutation, and normal approximation reference
distributions against a direct Monte Carlo draw of the true null
statistic distribution (Qc = Qt, historical arm shifted by 2).  An
optional probe shift recomputes the references on alternative data
(Qt moved away from Qc) while keeping the true null fixed, exposing how
each reference degrades away from the null.
"""

import argparse
import sys

from ttpool.cli import write_table
from ttpool.pipeline import TTPConfig
from ttpool.simulate import MeanShift, Scenario, null_distribution_study


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--out", required=True, help="output TSV path")
    p.add_argument("--replicates", type=int, default=300)
    p.add_argument("--sizes", type=int, nargs="+", default=[100, 300, 600])
    p.add_argument("--probe-shift", type=float, default=None,
                   help="mu_c - mu_t for probe data (e.g. 1.0 for Qt = N(-1,1))")
    p.add_argument("--ref-draws", type=int, default=20)
    p.add_argument("--levels", type=float, nargs="+", default=[0.9, 0.95])
    p.add_argument("--seed", type=int, default=5)
    p.add_argument("--workers", type=int, default=4)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    probe = None
    if args.probe_shift is not None:
        probe = MeanShift(args.probe_shift, 2.0)
    rows = []
    for n in args.sizes:
        scn = Scenario(
            generator=MeanShift(0.0, 2.0), n=n, m=n // 2, l=n,
            ttp=TTPConfig(), replicates=args.replicates, master_seed=args.seed,
        )
        for row in null_distribution_study(
            scn, probe_levels=tuple(args.levels),
            probe_generator=probe, ref_draws=args.ref_draws, workers=args.workers,
        ):
            rows.append([n, row.method, row.level, row.reference_quantile,
                         row.true_quantile, row.ks_distance])
            print(f"n={n} {row.method} level={row.level}: "
                  f"ref_q={row.reference_quantile:.4g} true_q={row.true_quantile:.4g} "
                  f"ks={row.ks_distance:.4f}")
    cfg = {
        "replicates": args.replicates, "sizes": args.sizes,
        "probe_shift": args.probe_shift, "ref_draws": args.ref_draws,
        "seed": args.seed,
    }
    header = ["n", "method", "level", "reference_quantile", "true_quantile",
              "ks_distance"]
    write_table(args.out, cfg, header, rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
