"""Simulate default paths from the calibrated generator and price a book
that is short four units of equity and long two of the junior mezzanine."""

from pathlib import Path

from cdo_compat import load_snapshot, simulate_npv, verify_strong_at_N

snapshot = load_snapshot(Path(__file__).with_name("snapshot.json"))
law = verify_strong_at_N(snapshot, 100).law

positions = [-4.0, 2.0, -1.0, 0.0]
summary = simulate_npv(law, snapshot, n_paths=200_000, seed=7,
                       positions=positions)

print(f"{summary.n_paths} paths, seed {summary.seed}, positions {positions}")
print(f"{'column':>12} {'model':>11} {'mean':>11} {'sd':>10} {'t':>6}")
for k, label in enumerate(summary.labels):
    print(f"{label:>12} {summary.expected[k]:11.4e} {summary.mean[k]:11.4e} "
          f"{summary.std[k]:10.3e} {summary.t_stat[k]:6.2f}")

print("\nportfolio value quantiles:")
for level in (1, 5, 50, 95, 99):
    print(f"  {level:>2}%: {summary.quantiles[level][-1]:.4e}")

defaults = summary.count_hist[-1]
print("\ndefault-count distribution at maturity (per cent):")
for j in range(0, 126, 5):
    mass = defaults[j:j + 5].sum() / summary.n_paths
    if mass > 5e-4:
        print(f"  {j:3d}-{min(j + 4, 125):3d}: {mass:6.2%}")
