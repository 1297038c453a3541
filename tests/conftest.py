"""Fixtures shared by the test modules."""

import pytest

from pacesim import replicate, simulation


@pytest.fixture
def replicate_one_row(monkeypatch):
    """replicate run one replication per chunk: a chunk memory budget below
    one row's traces."""

    def run(config, replications, reducer=None):
        with monkeypatch.context() as patch:
            patch.setattr(simulation, "_CHUNK_BYTES", 1)
            return replicate(config, replications, reducer)

    return run
