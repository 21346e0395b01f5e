import os

import numpy as np
import pytest
import scipy.sparse as sp

from cdo_compat import load_snapshot, verify_strong_at_N, verify_weak
from cdo_compat.opt_backend import LinearProgram

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


def full_elastic_lp(problem):
    """The elastic decision LP over the polytope's full form: the reference.

    Marginal and monotonicity rows stay exact; a mid-quote row gets one
    slack per sign (v = s_up - s_down), a band row one on its own side
    (side * v <= s). The objective is the total slack in value units
    (Chinneck's elastic filter). The law's columns come first, then the
    slacks: for mid quotes the k up slacks, then the k down slacks.
    """
    k, n = problem.n_quotes, problem.A_eq.shape[1]
    signs = (1.0,) if problem.bands else (1.0, -1.0)
    quoted, other = ((problem.A_ub, problem.A_eq) if problem.bands
                     else (problem.A_eq, problem.A_ub))
    own = sp.vstack([sp.csr_matrix((quoted.shape[0] - k, k)), sp.identity(k)])
    cols = sp.hstack([-sign * own for sign in signs])
    none = sp.csr_matrix((other.shape[0], cols.shape[1]))
    ub, eq = (cols, none) if problem.bands else (none, cols)
    return LinearProgram(
        c=np.concatenate([np.zeros(n), np.ones(cols.shape[1])]),
        A_ub=sp.hstack([problem.A_ub, ub], format="csr"), b_ub=problem.b_ub,
        A_eq=sp.hstack([problem.A_eq, eq], format="csr"), b_eq=problem.b_eq,
        bounds=(0, None))


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
