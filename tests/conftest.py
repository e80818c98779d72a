import os
import sys

import pytest

from mixquant import mixture

sys.path.insert(0, os.path.dirname(__file__))


def _recorder(monkeypatch, name):
    """Every mixture passed to ``mixture.<name>``, in call order."""
    calls = []
    real = getattr(mixture, name)

    def recording(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(mixture, name, recording)
    return calls


@pytest.fixture
def merge_counter(monkeypatch):
    """Every mixture passed to ``merged_distribution``, in call order."""
    return _recorder(monkeypatch, "merged_distribution")


@pytest.fixture
def walk_counter(monkeypatch):
    """Every mixture whose quantile pieces are walked (``_walk_pieces``), in call order."""
    return _recorder(monkeypatch, "_walk_pieces")
