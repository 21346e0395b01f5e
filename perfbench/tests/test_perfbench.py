"""Tests of the benchmark's own generator, checker and trace arithmetic.

    python -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _plain(docs, passes, extras):
    return docs, [[(op.kind, op.group, op.argv, op.expect) for op in ops]
                  for ops in passes + [extras]]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    first = _plain(*workloads.build(workload, 7, 3, full=True))
    again = _plain(*workloads.build(workload, 7, 3, full=True))
    other = _plain(*workloads.build(workload, 8, 3, full=True))
    assert first == again
    assert first != other


def test_compatible_moves_stay_inside_the_reference_range():
    ranges50 = workloads.reference_tables()["RANGES_BY_N"][50]
    docs, passes, extras = workloads.build("verdicts", 3, 4)
    assert extras == []
    for name, doc in docs.items():
        if "_c" in name:
            tranche = int(name.rsplit("_c", 1)[1].split(".")[0])
            lo, hi = ranges50[tranche]
            assert lo < doc["tranches"][tranche]["quote_value"] < hi
    groups = {op.group for ops in passes for op in ops}
    assert groups == {"compatible", "far"}


def _verdict(compatible):
    return workloads.Op("verdict", "far", ["verify-weak"], {"compatible": compatible})


def test_checker_flags_numerical_failure_even_with_exit_one():
    payload = json.dumps({"compatible": False, "status": "numerical_failure",
                          "certificate": "solver gave up"})
    assert checks.check(_verdict(False), 1, payload) == "numerical_failure"
    proven = json.dumps({"compatible": False, "status": "infeasible",
                         "certificate": "infeasible"})
    assert checks.check(_verdict(False), 1, proven) is None
    assert checks.check(_verdict(True), 1, proven) is not None


def _ranges_op():
    tables = workloads.reference_tables()
    return workloads.Op("bound", "ranges", ["ranges"],
                        {"N": 50, "reference": tables["RANGES_BY_N"][50],
                         "tols": [0.10, 0.10, 1.0, 1.0]})


def _ranges_payload(shift):
    ref = workloads.reference_tables()["RANGES_BY_N"][50]
    rows = [{"tranche": str(l), "lower": lo + (shift if l == 0 else 0.0),
             "upper": hi} for l, (lo, hi) in enumerate(ref)]
    return json.dumps({"50": rows})


def test_checker_flags_an_out_of_tolerance_range():
    op = _ranges_op()
    assert checks.check(op, 0, _ranges_payload(0.05)) is None
    assert "reference" in checks.check(op, 0, _ranges_payload(0.15))


def test_checker_flags_a_bound_that_misses_the_quote_or_window():
    inside = workloads.Op("bound", "standard", [], {"contains": 27.44})
    assert checks.check(inside, 0, json.dumps({"lower": 27.0, "upper": 28.0})) is None
    assert checks.check(inside, 0, json.dumps({"lower": 27.5, "upper": 28.0}))
    window = workloads.Op("bound", "index_limit", [], {"window": (57.5, 58.5)})
    assert checks.check(window, 0, json.dumps({"lower": 57.49, "upper": 57.49}))


def test_self_time_subtracts_direct_children_only():
    tr = tracing.Tracer()
    tr.spans[:] = [["cli.ranges", "cli", 0.0, 10.0, None, 0],
                   ["strong_compat.range_at_N", "strong_compat", 1.0, 9.0, 0, 0],
                   ["opt_backend.solve_lp", "opt_backend", 2.0, 5.0, 1, 0],
                   ["opt_backend.solve_lp", "opt_backend", 5.0, 8.0, 1, 0]]

    class Lru:
        @staticmethod
        def cache_info():
            return type("Info", (), {"hits": 0, "misses": 0})

    tr._h_matrix, tr._h_info0 = Lru, Lru.cache_info()
    m = tr.metrics()
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["strong_compat.self_s"] == pytest.approx(2.0)
    assert m["opt_backend.self_s"] == pytest.approx(6.0)
    assert m["strong_compat.range_s"] == pytest.approx(8.0)
