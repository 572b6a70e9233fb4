import numpy as np
import pytest

from alohagame import Game, chain_matrix

# Verdict lines from the acceptance suite, replayed after the run so
# they stay visible under pytest's output capture.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def random_game(rng, n_max=4):
    """Random small instance: asymmetric binary topology, rates in [0, 1].

    Half the draws symmetrize the matrix; occasionally one rate is
    zeroed to exercise the silent-player path.
    """
    n = int(rng.integers(1, n_max + 1))
    density = rng.uniform(0.2, 0.95)
    a = (rng.random((n, n)) < density).astype(int)
    if rng.random() < 0.5:
        a = np.maximum(a, a.T)
    np.fill_diagonal(a, 0)
    hi = rng.choice([0.15, 0.3, 0.6])
    y = rng.uniform(0.0, hi, n)
    if rng.random() < 0.15:
        y[int(rng.integers(0, n))] = 0.0
    return Game(a, y)


def instance_rng(master: int, index: int) -> np.random.Generator:
    """Deterministic per-instance generator for seeded batches."""
    return np.random.default_rng(np.random.SeedSequence([master, index]))


def record_calls(monkeypatch, module, name):
    """Rebind ``module.<name>`` to a wrapper that records each call as (positional args, result)."""
    calls = []
    original = getattr(module, name)

    def recording(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append((args, out))
        return out

    monkeypatch.setattr(module, name, recording)
    return calls


@pytest.fixture
def chain3() -> Game:
    """The three-player chain at common rate 0.15."""
    return Game(chain_matrix(3), [0.15, 0.15, 0.15])


# The chain3 game's two feasible equilibria, to four decimals.
Q_STAR = np.array([0.1952, 0.2316, 0.1952])
P_SADDLE = np.array([0.5451, 0.7248, 0.5451])
