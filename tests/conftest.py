import os

import pytest

from cdo_compat import load_snapshot, verify_strong_at_N, verify_weak

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
SNAPSHOT_PATH = os.path.join(DATA_DIR, "snapshot.json")


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
