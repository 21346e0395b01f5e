"""Calibrate the index curve and decide both compatibility notions."""

from pathlib import Path

from cdo_compat import iterative_verify, load_snapshot, verify_weak

snapshot = load_snapshot(Path(__file__).with_name("snapshot.json"))
curve = snapshot.curve  # calibrated to the index once, on first use

print(f"as of {snapshot.as_of}: index {snapshot.index_spread * 1e4:.0f} bps, "
      f"hazard {curve.hazard:.6f}")
print(f"five year default probability: {curve(5.0):.4%}")

weak = verify_weak(snapshot)
print(f"\nweakly compatible: {'yes' if weak.feasible else 'no'}")
print(weak.certificate)

strong = iterative_verify(snapshot)
print(f"\nstrongly compatible: {'yes' if strong.compatible else 'no'} "
      f"(resolution {strong.final_N})")
for record in strong.history:
    print(f"  tranche {record.tranche} at N={record.N}: "
          f"[{record.lower:.6f}, {record.upper:.6f}]")
