"""Index hedge ratios from the entropy-projected bump response."""

from pathlib import Path

from cdo_compat import load_snapshot, spread_delta, verify_weak

snapshot = load_snapshot(Path(__file__).with_name("snapshot.json"))
prior = verify_weak(snapshot).law

report = spread_delta(snapshot, prior, shift_bps=1.0)
print(f"one basis point on the index moves a unit-notional index swap by "
      f"{report.dv_cds:.3e}")
print(f"{'tranche':>12} {'dv':>12} {'delta':>9} {'delta/width':>12}")
for a, d, dv, delta in zip(report.attach, report.detach, report.dv,
                           report.delta):
    width = d - a
    print(f"[{a:.0%}, {d:.0%}]".rjust(12)
          + f" {dv:12.3e} {delta:9.4f} {delta / width:12.3f}")
print(f"{'sum':>12} {sum(report.dv):12.3e} {sum(report.delta):9.4f}")
