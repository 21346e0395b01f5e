"""Seeded operation lists for the perfbench workloads.

A workload is a list of passes; a pass is a list of `cdo-compat` CLI
operations. Everything here is derived from the workload seed and the
repository's fixture snapshot, and the program sees only the snapshot files
written by `write_inputs`. Each operation carries what the checker needs to
judge its output (the verdict expected by construction, a reference range,
a quote that must lie inside a bound), so nothing is learned from the
program's own answers.

This module imports nothing from the package under test.
"""

from __future__ import annotations

import ast
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "data" / "snapshot.json"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

# The move that leaves the quotes incompatible by a wide margin, as tranche
# index and interval in display units (spread bp). Both verdicts end cleanly
# on it: HiGHS proves the weak LP infeasible in about 0.3 s and the iterative
# walk reports the failing tranche. Far moves of the other tranches are not
# used because the weak LP is erratic on them (see KNOWN_FAILING_MOVES).
FAR_MOVE = (3, (80.0, 300.0))

# Snapshots that the program gets wrong today; they are extra operations
# (see `extra_ops`). Near the arbitrage-free boundary (equity at 28.1% or
# 30%, the 6-12% tranche at 125 bp) and on some far equity moves (the
# 16.706...% that seed 23 once drew; 16.7% itself is proven infeasible) the
# weak LP ends in NUMERICAL_FAILURE, near the boundary after 5-60 s. With
# equity at 40% the iterative walk raises InfeasibleRegion out of the CLI
# instead of reporting a verdict.
KNOWN_FAILING_MOVES = ((0, 28.1), (0, 30.0), (2, 125.0),
                       (0, 16.706295424899928), (0, 40.0))

# Bid/ask half-widths drawn for the band around compatible quotes.
BAND_UPFRONT = (0.05, 0.20)   # per cent
BAND_SPREAD = (0.5, 2.0)      # bp

STANDARD_BOUNDS = ((0.0, 0.03, "upfront", 100.0), (0.03, 0.06, "upfront", 100.0),
                   (0.06, 0.12, "spread", 0.0), (0.12, 1.0, "spread", 0.0))
POOL_SIZES = (50, 100, 150, 200)
INDEX_SPREAD_WINDOW = 0.5     # bp around the quoted index spread

# Each extra operation runs in its own interpreter and is stopped, and
# counted as failed, after this many seconds.
EXTRA_OP_CAP = 90

SIM_PATHS = 10_000
SIMS_PER_PASS = 8
HEDGE_SHIFT_BPS = (0.75, 1.25)  # magnitude range; each pass bumps both ways


@dataclass
class Op:
    """One CLI invocation plus the facts its output is checked against."""

    kind: str            # verdict | bound | hedge | sim | csv
    group: str           # which slice of the workload it belongs to
    argv: list
    expect: dict = field(default_factory=dict)


def reference_tables(path=ACCEPTANCE):
    """The acceptance suite's reference ranges and tolerances.

    Read with `ast` so that the benchmark shares one table with the tests
    without importing pytest or the package.
    """
    wanted = {"RANGES_BY_N", "RANGES_BY_POOL", "QUOTES_DISPLAY",
              "UPFRONT_TOL", "SPREAD_TOL"}
    out = {}
    for node in ast.parse(Path(path).read_text()).body:
        if not isinstance(node, ast.Assign):
            continue
        target, value = node.targets[0], ast.literal_eval(node.value)
        if isinstance(target, ast.Name):
            pairs = [(target.id, value)]
        elif isinstance(target, ast.Tuple):
            pairs = zip((t.id for t in target.elts), value)
        else:
            continue
        out.update((k, v) for k, v in pairs if k in wanted)
    missing = wanted - out.keys()
    if missing:
        raise ValueError(f"{path} lacks {sorted(missing)}")
    return out


def _moved(base, tranche, value, band=None):
    doc = json.loads(json.dumps(base))
    doc["tranches"][tranche]["quote_value"] = value
    if band is not None:
        for td, (down, up) in zip(doc["tranches"], band):
            td["bid_value"] = td["quote_value"] - down
            td["ask_value"] = td["quote_value"] + up
    return doc


def _band(rng, base):
    out = []
    for td in base["tranches"]:
        lo, hi = BAND_UPFRONT if td["quote"] == "upfront" else BAND_SPREAD
        out.append((rng.uniform(lo, hi), rng.uniform(lo, hi)))
    return out


def verdict_passes(seed, n_passes):
    """Snapshot documents and verdict ops; one compatible and one far per pass.

    Pass k moves tranche k mod 4 to a seeded point in the middle 60% of its
    N=50 reference range, so both verdicts are "compatible" by construction,
    and moves the FAR_MOVE quote to a seeded point far outside, so both are
    "incompatible". Passes differ in their tranche and points, so wall_s is
    taken over the same first TIMED_PASSES passes on every commit.
    """
    base = json.loads(FIXTURE.read_text())
    ranges50 = reference_tables()["RANGES_BY_N"][50]
    far_tranche, far_interval = FAR_MOVE
    docs, passes = {}, []
    for k in range(n_passes):
        rng = random.Random(f"verdicts:{seed}:{k}")
        tranche = k % len(ranges50)
        lo, hi = ranges50[tranche]
        name = f"v{k}_c{tranche}.json"
        docs[name] = _moved(base, tranche, lo + rng.uniform(0.2, 0.8) * (hi - lo),
                            _band(rng, base))
        ops = _verdict_ops(name, "compatible", True, bid_ask=True)
        name = f"v{k}_f{far_tranche}.json"
        docs[name] = _moved(base, far_tranche, rng.uniform(*far_interval))
        ops += _verdict_ops(name, "far", False)
        passes.append(ops)
    return docs, passes


def _verdict_ops(name, group, compatible, bid_ask=False):
    expect = {"compatible": compatible}
    argvs = [["verify-weak"], ["verify-strong"]]
    if compatible:
        argvs.append(["verify-strong", "--resolution", "100"])
    if bid_ask:
        argvs += [["verify-bid-ask", "--mode", "weak"],
                  ["verify-bid-ask", "--mode", "strong"]]
    return [Op("verdict", group, a[:1] + ["-i", name] + a[1:] + ["--json"],
               dict(expect)) for a in argvs]


def bound_passes(seed, n_passes):
    """Range and bound ops on the fixture snapshot.

    Every pass runs `ranges` at N=50, `bounds-names` for the four standard
    tranches at every pool size of POOL_SIZES, and `bounds-tranche` on the
    standard tranches plus two seeded nonstandard ones.
    """
    tables = reference_tables()
    quotes = tables["QUOTES_DISPLAY"]
    tols = _tolerances(tables)
    passes = []
    for k in range(n_passes):
        rng = random.Random(f"bounds:{seed}:{k}")
        ops = [_ranges_op(tables, 50)]
        for pool in POOL_SIZES:
            for l, (a, d, kind, run) in enumerate(STANDARD_BOUNDS):
                ops.append(Op("bound", "names",
                              ["bounds-names", "-i", "fixture.json", "--names",
                               str(pool), "--attach", f"{a:g}", "--detach",
                               f"{d:g}", "--kind", kind, "--running-bps",
                               f"{run:g}", "--json"],
                              {"reference": tables["RANGES_BY_POOL"][pool][l],
                               "tol": tols[kind]}))
        for l, (a, d, kind, run) in enumerate(STANDARD_BOUNDS):
            ops.append(_tranche_op("standard", a, d, kind, run,
                                   {"contains": quotes[l]}))
        for _ in range(2):
            a = rng.choice((0.0, 0.03, 0.06))
            d = round(a + rng.uniform(0.02, 0.06), 4)
            ops.append(_tranche_op("nonstandard", a, d, "upfront", 100.0, {}))
        passes.append(ops)
    return {}, passes


def _tolerances(tables):
    return {"upfront": tables["UPFRONT_TOL"], "spread": tables["SPREAD_TOL"]}


def _ranges_op(tables, N):
    tols = _tolerances(tables)
    return Op("bound", "ranges",
              ["ranges", "-i", "fixture.json", "--n-seq", str(N), "--json"],
              {"N": N, "reference": tables["RANGES_BY_N"][N],
               "tols": [tols[s[2]] for s in STANDARD_BOUNDS]})


def _tranche_op(group, a, d, kind, run, expect):
    return Op("bound", group,
              ["bounds-tranche", "-i", "fixture.json", "--attach", f"{a:g}",
               "--detach", f"{d:g}", "--kind", kind, "--running-bps",
               f"{run:g}", "--json"], expect)


def risk_passes(seed, n_passes):
    """Hedges with both bump signs and simulations from stored artifacts.

    `prior.csv` and `law.csv` are written during set-up (see worker.py).
    """
    passes = []
    for k in range(n_passes):
        rng = random.Random(f"risk:{seed}:{k}")
        ops = []
        for sign in (1.0, -1.0):
            shift = sign * rng.uniform(*HEDGE_SHIFT_BPS)
            ops.append(Op("hedge", "hedge",
                          ["hedge", "-i", "fixture.json", "--prior",
                           "prior.csv", "--shift-bps", f"{shift:.6f}",
                           "--json"]))
        for j in range(SIMS_PER_PASS):
            sim_seed = rng.randrange(1 << 30)
            argv = ["simulate", "-i", "fixture.json", "--solution", "law.csv",
                    "--paths", str(SIM_PATHS), "--seed", str(sim_seed),
                    "--json"]
            ops.append(Op("sim", "sim", argv, {"paths": SIM_PATHS}))
            ops.append(Op("csv", "csv", argv + ["--out", f"paths{j}.csv"],
                          {"paths": SIM_PATHS, "csv": f"paths{j}.csv"}))
        passes.append(ops)
    return {}, passes


WORKLOADS = {"verdicts": verdict_passes, "bounds": bound_passes,
             "risk": risk_passes}

# The passes every run makes first; wall_s is their median pass, so every
# commit is timed on the same passes and one slow solve does not move it.
TIMED_PASSES = {"verdicts": 7, "bounds": 1, "risk": 2}


def extra_ops(workload):
    """(snapshot documents, ops) that fail today or are too slow for a pass.

    verdicts: both verdicts on each KNOWN_FAILING_MOVES snapshot. bounds:
    `ranges` at N=100 and N=200 (4 and 27 s) and the 0-100% index limit,
    which must price within INDEX_SPREAD_WINDOW of the quoted index spread.
    """
    base = json.loads(FIXTURE.read_text())
    docs, ops = {}, []
    if workload == "verdicts":
        for tranche, value in KNOWN_FAILING_MOVES:
            name = f"known_{tranche}_{value:.4f}.json"
            docs[name] = _moved(base, tranche, value)
            ops += _verdict_ops(name, "known_failing", False)
    elif workload == "bounds":
        tables = reference_tables()
        ops += [_ranges_op(tables, 100), _ranges_op(tables, 200)]
        index = base["index_spread_bps"]
        ops.append(_tranche_op("index_limit", 0.0, 1.0, "spread", 0.0,
                               {"window": (index - INDEX_SPREAD_WINDOW,
                                           index + INDEX_SPREAD_WINDOW)}))
    return docs, ops


def build(workload, seed, n_passes, full=False):
    """(snapshot documents by file name, passes of Op, extra Ops).

    The extra operations are empty unless `full`.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose one of {sorted(WORKLOADS)}")
    docs, passes = WORKLOADS[workload](seed, n_passes)
    extra_docs, extras = extra_ops(workload) if full else ({}, [])
    docs = {"fixture.json": json.loads(FIXTURE.read_text()), **docs, **extra_docs}
    return docs, passes, extras


def write_inputs(docs, workdir):
    workdir = Path(workdir)
    for name, doc in docs.items():
        (workdir / name).write_text(json.dumps(doc, indent=1))
