import os

import numpy as np
import pytest
import scipy.sparse as sp

from cdo_compat import load_snapshot, verify_strong_at_N, verify_weak

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
SNAPSHOT_PATH = os.path.join(DATA_DIR, "snapshot.json")


def tail_rows(m, n):
    """Rows Theta_{i,j} - Theta_{i+1,j}, i = 1..m-1, j = 1..n, in tail form.

    A date difference (row i: +1 at date i, -1 at date i+1) times the
    per-date tail-sum operator (row j: ones on states j..n): the reference
    form of the monotonicity rows that `weak_compat.structure_rows` writes
    shorter.
    """
    return sp.kron(sp.eye(m - 1, m) - sp.eye(m - 1, m, k=1),
                   np.triu(np.ones((n, n + 1)), k=1), format="csr")


@pytest.fixture(scope="session")
def snapshot():
    return load_snapshot(SNAPSHOT_PATH)


@pytest.fixture(scope="session")
def curve(snapshot):
    return snapshot.curve


@pytest.fixture(scope="session")
def weak_result(snapshot):
    return verify_weak(snapshot)


@pytest.fixture(scope="session")
def strong_100(snapshot):
    return verify_strong_at_N(snapshot, 100)
