import pytest

from sketchlab import sketching
from sketchlab.linalg import _check_array


@pytest.fixture
def array_checks(monkeypatch):
    """The names the loss family passes to the array rule, in call order."""
    names = []

    def counted(name, a, shape=None):
        names.append(name)
        return _check_array(name, a, shape)

    monkeypatch.setattr(sketching, "_check_array", counted)
    return names
