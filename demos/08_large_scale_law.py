"""The connectivity law at 200 to 1,000 players
================================================

The paper's theory is meant for large distributed networks. At density
0.03 a topology of 1,000 players splits into connected components of
at most a few dozen players, and the rate searches solve each trial
block by block, so a few trials per size take well under a second.

Their total throughput is fitted with the two-segment power law of
demo 07 and printed beside the law of the small networks (n <= 60, the
pool of criterion 6 at fewer trials) and the exponents criterion 6
checks. All large trials sit far below connectivity 0.1, so only the
low segment is fitted. This is a look, not a check: the suite does not
gate on it.
"""

import pathlib

import numpy as np

from alohagame import density_sweep, fit_power_law, size_sweep, write_records_csv

out_dir = pathlib.Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)


def fit(records):
    x = np.array([r.connectivity for r in records])
    y = np.array([r.total_throughput for r in records])
    keep = (x > 0) & (y > 0)
    return fit_power_law(x[keep], y[keep], break_x=0.1)


large, _, summaries = size_sweep(0.03, [200, 500, 1000], trials=3, seed=2108, include_fully_connected=False)
write_records_csv(out_dir / "large_scale_pool.csv", large)
print("density 0.03, 3 trials per size:")
for row in summaries:
    print(
        f"  n {row['n']:>4}  connectivity {row['mean_connectivity']:.5f}  "
        f"common rate {row['mean_max_common_rate']:.4f}  total {row['mean_total_throughput']:.1f}"
    )

small, _ = density_sweep(20, [0.008, 0.02, 0.05, 0.15, 0.5, 2.0], trials=5, seed=2024)
small += size_sweep(0.1, [10, 20, 30, 40, 60], trials=5, seed=4025, include_fully_connected=False)[0]
small += size_sweep(0.03, [20, 40, 60], trials=5, seed=77, include_fully_connected=False)[0]

law, big = fit(small), fit(large)
print("\ntotal throughput against connectivity X, X < 0.1:")
print(f"  n <= 60      : {law.c_low:.2f} * X^{law.e_low:.2f}   ({law.n_low} records)")
print(f"  n 200..1,000 : {big.c_low:.2f} * X^{big.e_low:.2f}   ({big.n_low} records)")
print("  criterion 6 checks exponent -0.47 +-0.15 below X = 0.1 and -0.82 +-0.15 above")
for row in summaries:
    predicted = law.predict([row["mean_connectivity"]])[0]
    print(f"  n {row['n']:>4}: the small-network law predicts {predicted:.1f}, the trials give {row['mean_total_throughput']:.1f}")
