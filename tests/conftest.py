import numpy as np
import pytest


@pytest.fixture
def eig_calls(monkeypatch):
    """Shapes (stack, n, n) of the numpy.linalg.eigh calls the Mathieu kernel makes."""
    calls = []
    real = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls
