import numpy as np
import pytest

from qring import mathieu, spectrum


@pytest.fixture
def solves(monkeypatch):
    """(path, stack, n) of each stacked window solve the Mathieu kernel makes:
    path "iteration" or "eigh", stack the rows solved together, n the sites."""
    calls = []
    iterate, eigh = mathieu._inverse_iteration, np.linalg.eigh

    def iterated(d, *args):
        calls.append(("iteration", *d.shape))
        return iterate(d, *args)

    def dense(a, *args, **kwargs):
        calls.append(("eigh", *a.shape[:2]))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(mathieu, "_inverse_iteration", iterated)
    monkeypatch.setattr(np.linalg, "eigh", dense)
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
