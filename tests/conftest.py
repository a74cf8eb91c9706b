import numpy as np
import pytest

from flatgp.smoothers import SmootherMatrix


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def count_linalg(monkeypatch):
    """``count_linalg(name)`` records the argument shape of every numpy.linalg.<name> call."""

    def count(name):
        shapes = []
        orig = getattr(np.linalg, name)

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return orig(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
        return shapes

    return count


@pytest.fixture
def dense_smoothers(monkeypatch):
    """The size n of every n x n matrix formed from a smoother's spectral factors."""
    formed = []
    form = SmootherMatrix.matrix.func

    def counted(self):
        formed.append(self.n)
        return form(self)

    monkeypatch.setattr(SmootherMatrix.matrix, "func", counted)
    return formed


def pytest_terminal_summary(terminalreporter):
    # surface the per-criterion lines even when stdout capture is on
    import sys

    for name, mod in list(sys.modules.items()):
        if name.rpartition(".")[2] == "test_acceptance" and getattr(mod, "RESULTS", None):
            terminalreporter.section("acceptance criteria")
            for line in mod.RESULTS:
                terminalreporter.write_line(line)
            break
