import pytest

from sketchlab import amg, sketching
from sketchlab.linalg import _check_array


def _record_array_checks(monkeypatch, module):
    names = []

    def counted(name, a, shape=None):
        names.append(name)
        return _check_array(name, a, shape)

    monkeypatch.setattr(module, "_check_array", counted)
    return names


@pytest.fixture
def array_checks(monkeypatch):
    """The names the loss family passes to the array rule, in call order."""
    return _record_array_checks(monkeypatch, sketching)


@pytest.fixture
def amg_array_checks(monkeypatch):
    """The names the multigrid family passes to the array rule, in call order."""
    return _record_array_checks(monkeypatch, amg)
