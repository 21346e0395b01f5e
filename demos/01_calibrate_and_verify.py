"""Calibrate the index curve and decide both compatibility notions."""

from pathlib import Path

from cdo_compat import (iterative_verify, load_snapshot, snapshot_from_dict,
                        snapshot_to_dict, verify_weak)

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
      f"(rule {strong.rule}, resolution {strong.final_N})")
for record in strong.history:
    print(f"  tranche {record.tranche} at N={record.N}: "
          f"[{record.lower:.6f}, {record.upper:.6f}]")

# With the senior tranche at 300 bp the quotes are weakly incompatible, and
# its quote lies outside its range over every DPM that prices the tranches
# before it. Every strong law is a DPM, so the walk stops there, without a
# strong solve for that tranche: no law prices the quotes at any N.
raw = snapshot_to_dict(snapshot)
raw["tranches"][3]["quote_value"] = 300.0
far = iterative_verify(snapshot_from_dict(raw))
lower, upper = far.weak_range
print(f"\nsenior at 300 bp: strongly compatible: "
      f"{'yes' if far.compatible else 'no'} (rule {far.rule}, tranche "
      f"{far.failing_tranche}, weak range [{lower * 1e4:.4f}, "
      f"{upper * 1e4:.4f}] bp)")
