import numpy as np
import pytest

from alohagame import Game, chain_matrix, connected_components, experiments, random_topology, side_for_density

# Verdict lines from the acceptance suite, replayed after the run so
# they stay visible under pytest's output capture.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def random_game(rng, n_max=4, n_min=1):
    """Random small instance: asymmetric binary topology, rates in [0, 1].

    The players number from ``n_min`` to ``n_max``. Half the draws
    symmetrize the matrix; occasionally one rate is zeroed to exercise
    the silent-player path.
    """
    n = int(rng.integers(n_min, n_max + 1))
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


def batch_games(seed):
    """The 162 games of the benchmark's ``batch`` workload for ``seed``
    (``bench/workloads.py``): 1-4 players, rates up to 0.15, 0.3 or 0.6,
    asymmetric or symmetrised, about one game in seven with a silent player."""
    sizes, scales = (1, 2, 3, 4, 4, 4, 4, 4, 4), (0.15, 0.3, 0.6)
    for i in range(3 * len(sizes) * len(scales) * 2):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        n = sizes[i % len(sizes)]
        density = rng.uniform(0.2, 0.95)
        a = (rng.random((n, n)) < density).astype(int)
        if (i // (len(sizes) * len(scales))) % 2 == 1:
            a = np.maximum(a, a.T)
        np.fill_diagonal(a, 0)
        y = rng.uniform(0.0, scales[(i // len(sizes)) % len(scales)], n)
        if rng.random() < 0.15:
            y[int(rng.integers(0, n))] = 0.0
        yield Game(a, y)


def sweep_topologies(seed):
    """The topologies of the benchmark's ``sweep`` workload for ``seed``
    (``bench/workloads.py``), one list of 4 trials per setting. Each
    setting's master seed is drawn until its trials hold one whose
    largest component is a pair at densities 0.008 and 0.02, and none
    at the other settings."""
    settings = [(20, d) for d in (0.008, 0.02, 0.05, 0.15, 0.5, 2.0)]
    settings += [(n, 0.1) for n in (10, 20, 30, 40, 60)] + [(n, 0.03) for n in (20, 40, 60)]
    pool = []
    for index, (n, density) in enumerate(settings):
        side = side_for_density(n, density)
        wanted = {0.008: 1, 0.02: 1}.get(density, 0)
        for attempt in range(10_000):
            master = int(np.random.SeedSequence([seed, index, attempt]).generate_state(1)[0])
            trials = [random_topology(n, side, experiments._trial_seed(master, 0, t))[1] for t in range(4)]
            if sum(max(len(c) for c in connected_components(m)) == 2 for m in trials) == wanted:
                break
        pool.append(trials)
    return pool


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
