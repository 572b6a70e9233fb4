"""Interference topologies: generators, graph measures, file I/O.

Random topologies follow a disk model: players are dropped uniformly
in a square, the first half get the long transmission range (5 length
units) and the rest the short one (3), and two players interfere when
they can reach each other. Positions come from numpy's default
PCG64 generator seeded explicitly, so a (n, side, seed) triple pins
the topology bit-for-bit across runs and platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .game import _as_binary_matrix

__all__ = [
    "NodePlacement",
    "RANGE_LONG",
    "RANGE_SHORT",
    "chain_matrix",
    "fully_connected_matrix",
    "random_topology",
    "side_for_density",
    "connectivity",
    "connected_components",
    "save_topology",
    "load_topology",
]

RANGE_LONG = 5.0
RANGE_SHORT = 3.0


@dataclass(frozen=True)
class NodePlacement:
    """Player coordinates and transmission ranges inside a square region."""

    positions: np.ndarray  # (n, 2)
    ranges: np.ndarray  # (n,)
    side: float

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        rng = np.asarray(self.ranges, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2 or rng.shape != (pos.shape[0],):
            raise ValueError("positions must be (n, 2) and ranges (n,)")
        if (pos < 0.0).any() or (pos > self.side).any():
            raise ValueError("positions must lie inside the square")
        if (rng <= 0.0).any():
            raise ValueError("ranges must be positive")
        pos.flags.writeable = False
        rng.flags.writeable = False
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "ranges", rng)

    @property
    def n(self) -> int:
        return self.positions.shape[0]


def chain_matrix(n: int) -> np.ndarray:
    """Path topology: each player interferes with its index neighbours."""
    a = np.zeros((n, n), dtype=np.int8)
    idx = np.arange(n - 1)
    a[idx, idx + 1] = 1
    a[idx + 1, idx] = 1
    a.flags.writeable = False
    return a


def fully_connected_matrix(n: int) -> np.ndarray:
    """Everyone interferes with everyone: the single-collision-channel case."""
    a = np.ones((n, n), dtype=np.int8)
    np.fill_diagonal(a, 0)
    a.flags.writeable = False
    return a


def side_for_density(n: int, density: float) -> float:
    """Square side giving ``density`` players per unit area."""
    if not (density > 0.0 and np.isfinite(density)):
        raise ValueError("density must be positive and finite")
    return math.sqrt(n / density)


def random_topology(n: int, side: float, seed, edge_rule: str = "min"):
    """Drop n players uniformly in a side x side square and link by reach.

    The first ceil(n/2) players get range 5, the rest range 3. With the
    default ``edge_rule="min"`` two players are linked when each lies
    inside the other's range, i.e. their distance is at most the
    smaller of the two ranges; ``"max"`` links them when either can
    reach the other. Positions are drawn as a single (n, 2) uniform
    block from ``numpy.random.default_rng(seed)``.

    Returns ``(placement, matrix)``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not (side > 0.0 and np.isfinite(side)):
        raise ValueError("side must be positive and finite")
    if edge_rule not in ("min", "max"):
        raise ValueError(f"edge_rule must be 'min' or 'max', got {edge_rule!r}")
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, side, size=(n, 2))
    ranges = np.where(np.arange(n) < math.ceil(n / 2), RANGE_LONG, RANGE_SHORT)

    delta = positions[:, np.newaxis, :] - positions[np.newaxis, :, :]
    dist = np.sqrt((delta**2).sum(axis=-1))
    combine = np.minimum if edge_rule == "min" else np.maximum
    reach = combine(ranges[:, np.newaxis], ranges[np.newaxis, :])
    a = (dist <= reach).astype(np.int8)
    np.fill_diagonal(a, 0)
    a.flags.writeable = False
    return NodePlacement(positions=positions, ranges=ranges, side=float(side)), a


def connectivity(matrix) -> float:
    """Fraction of possible directed interference links that are present."""
    a = np.asarray(matrix)
    n = a.shape[0]
    if n < 2:
        raise ValueError("connectivity needs at least 2 players")
    return float(a.sum()) / (n * (n - 1))


def connected_components(matrix) -> list:
    """Components of the undirected support graph (link in either direction).

    Returns a list of sorted player-index lists, ordered by smallest
    member.
    """
    a = np.asarray(matrix)
    n = a.shape[0]
    undirected = (a != 0) | (a.T != 0)
    seen = np.zeros(n, dtype=bool)
    components = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in np.flatnonzero(undirected[i] & ~seen):
                seen[j] = True
                stack.append(j)
        components.append(sorted(comp))
    return components


# ---------------------------------------------------------------------------
# Topology files
# ---------------------------------------------------------------------------
#
# Plain text: first line n, then n rows of n space-separated 0/1
# entries, then optionally a literal "# positions" line followed by one
# "i x y range" row per player (0-based indices).


def save_topology(path, matrix, placement: NodePlacement | None = None) -> None:
    a = _as_binary_matrix(matrix)
    n = a.shape[0]
    lines = [str(n)]
    lines += [" ".join(str(int(v)) for v in row) for row in a]
    if placement is not None:
        if placement.n != n:
            raise ValueError("placement size does not match the matrix")
        lines.append("# positions")
        for i in range(n):
            x, y = placement.positions[i]
            lines.append(f"{i} {x:.12g} {y:.12g} {placement.ranges[i]:.12g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_topology(path):
    """Parse a topology file; returns (matrix, placement or None).

    Rejects non-binary matrix entries and any nonzero diagonal.
    """
    with open(path) as fh:
        raw = [line.strip() for line in fh]
    lines = [line for line in raw if line]
    if not lines:
        raise ValueError(f"{path}: empty topology file")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError(f"{path}: first line must be the player count") from None
    if n < 1 or len(lines) < n + 1:
        raise ValueError(f"{path}: expected {n} matrix rows")
    rows = []
    for line in lines[1 : n + 1]:
        parts = line.split()
        if len(parts) != n or any(p not in ("0", "1") for p in parts):
            raise ValueError(f"{path}: matrix rows must be {n} space-separated 0/1 entries")
        rows.append([int(p) for p in parts])
    matrix = _as_binary_matrix(np.array(rows))

    placement = None
    rest = lines[n + 1 :]
    if rest:
        if rest[0] != "# positions":
            raise ValueError(f"{path}: unexpected content after the matrix: {rest[0]!r}")
        body = rest[1:]
        if len(body) != n:
            raise ValueError(f"{path}: positions block must have {n} rows")
        positions = np.zeros((n, 2))
        ranges = np.zeros(n)
        filled = np.zeros(n, dtype=bool)
        for line in body:
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"{path}: position rows must be 'i x y range'")
            i = int(parts[0])
            if not 0 <= i < n or filled[i]:
                raise ValueError(f"{path}: bad or repeated player index {i}")
            positions[i] = (float(parts[1]), float(parts[2]))
            ranges[i] = float(parts[3])
            filled[i] = True
        side = float(max(positions.max(initial=0.0), 1e-9))
        placement = NodePlacement(positions=positions, ranges=ranges, side=side)
    return matrix, placement
