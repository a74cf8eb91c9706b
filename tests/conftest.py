import numpy as np
import pytest


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


def pytest_terminal_summary(terminalreporter):
    # surface the per-criterion lines even when stdout capture is on
    import sys

    for name, mod in list(sys.modules.items()):
        if name.rpartition(".")[2] == "test_acceptance" and getattr(mod, "RESULTS", None):
            terminalreporter.section("acceptance criteria")
            for line in mod.RESULTS:
                terminalreporter.write_line(line)
            break
