import os
import sys

import pytest

from mixquant import mixture

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def merge_counter(monkeypatch):
    """Every mixture passed to ``merged_distribution``, in call order."""
    calls = []
    real = mixture.merged_distribution

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(mixture, "merged_distribution", counting)
    return calls
