import numpy as np
import pytest

from qring import spectrum


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


@pytest.fixture
def energies_calls(monkeypatch):
    """(states, material) of each spectrum._energies call: one chain solve each."""
    calls = []
    real = spectrum._energies

    def counted(states, mat, *args, **kwargs):
        calls.append((tuple(states), mat))
        return real(states, mat, *args, **kwargs)

    monkeypatch.setattr(spectrum, "_energies", counted)
    return calls
