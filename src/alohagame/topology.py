"""Interference topologies: generators, graph measures, block layouts, file I/O.

Random topologies follow a disk model: players are dropped uniformly
in a square, the first half get the long transmission range (5 length
units) and the rest the short one (3), and two players interfere when
they can reach each other. Positions come from numpy's default
PCG64 generator seeded explicitly, so a (n, side, seed) triple pins
the topology bit-for-bit across runs and platforms.

A stack of topologies is laid out as diagonal blocks of one size, the
same number per topology: by connected components (:func:`_pack`), or
one block per topology (:func:`_whole`). The rate searches solve and
decide either layout block by block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .game import _as_binary_matrix, _check_count, _check_positive_finite

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
        _check_positive_finite(self.side, "side")
        if not np.isfinite(pos).all():
            raise ValueError("positions must be finite")
        if (pos < 0.0).any() or (pos > self.side).any():
            raise ValueError("positions must lie inside the square")
        _check_positive_finite(rng, "ranges")
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
    _check_count(n, "n")
    _check_positive_finite(density, "density")
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
    _check_count(n, "n")
    _check_positive_finite(side, "side")
    if edge_rule not in ("min", "max"):
        raise ValueError(f"edge_rule must be 'min' or 'max', got {edge_rule!r}")
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, side, size=(n, 2))
    ranges = np.where(np.arange(n) < math.ceil(n / 2), RANGE_LONG, RANGE_SHORT)

    # distances one coordinate at a time, in place: two n x n arrays
    x, y = positions.T
    dist = np.subtract.outer(x, x)
    dist **= 2
    work = np.subtract.outer(y, y)
    work **= 2
    dist += work
    np.sqrt(dist, out=dist)
    combine = np.minimum if edge_rule == "min" else np.maximum
    reach = combine(ranges[:, np.newaxis], ranges[np.newaxis, :], out=work)
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


def _component_labels(matrices) -> np.ndarray:
    """The smallest member of each player's component, for a matrix or a stack of them.

    Components are those of the undirected support (a link in either
    direction). Labels start at the players' own indices. Each round,
    every player takes the smallest label among its own and its
    neighbours', and then the label of that label (pointer jumping),
    until no label changes. A label only falls and always names a
    member of the player's component, so it settles at the component's
    smallest member. One round costs one pass over the links.
    """
    a = np.asarray(matrices).astype(bool, copy=False)
    n = a.shape[-1]
    stack = a.reshape(-1, n, n)
    linked = stack | np.swapaxes(stack, -1, -2)
    diag = np.arange(n)
    # each player is its own neighbour, so every row has a link
    linked[:, diag, diag] = True
    rows, cols = np.nonzero(linked.reshape(-1, n))
    # players of matrix k are numbered k*n .. k*n + n - 1
    offsets = rows - rows % n
    cols += offsets
    starts = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
    labels = np.arange(len(starts))
    while True:
        lower = np.minimum.reduceat(labels[cols], starts)
        lower = lower[lower]
        if (lower == labels).all():
            return (labels - offsets[starts]).reshape(a.shape[:-1])
        labels = lower


def connected_components(matrix) -> list:
    """Components of the undirected support graph (link in either direction).

    Returns a list of sorted player-index lists, ordered by smallest
    member.
    """
    labels = _component_labels(matrix)
    order = np.argsort(labels, kind="stable")
    cuts = np.flatnonzero(np.diff(labels[order])) + 1
    return [part.tolist() for part in np.split(order, cuts)]


# ---------------------------------------------------------------------------
# Block layouts by connected components
# ---------------------------------------------------------------------------


class _Layout(NamedTuple):
    """A stack of games laid out as diagonal blocks of one size m, the same number of blocks per game.

    A game's interference graph splits into connected components, and
    so do its response map, Newton's system and its certificate, so the
    game can be solved and decided block by block. Block b holds the
    players ``slots[b]`` of game ``b // blocks`` with the links
    ``mask[b]`` between them; a slot holding n is a padding player,
    silent and unlinked. Game k's blocks are the rows ``k * blocks`` to
    ``k * blocks + blocks - 1``, and they hold each of its n players
    once. A block of padding players alone solves at 0 with the
    certificate 2I, so it never limits its game ahead of a real block.
    """

    mask: np.ndarray
    slots: np.ndarray
    n: int
    blocks: int

    def rows(self, games: np.ndarray) -> np.ndarray:
        """The blocks of the games ``games``, game by game."""
        return (games[:, np.newaxis] * self.blocks + np.arange(self.blocks)).ravel()

    def take(self, games: np.ndarray) -> _Layout:
        """The layout of the games ``games`` of this stack (indices, repeats allowed), in that order."""
        rows = self.rows(games)
        return _Layout(self.mask[rows], self.slots[rows], self.n, self.blocks)

    def gather(self, x: np.ndarray) -> np.ndarray:
        """The entries of ``x`` in every block, 0 for padding.

        ``x`` holds one row of n per game, or one vector of n for every
        game.
        """
        if x.ndim == 1:
            return np.append(x, 0.0)[self.slots]
        padded = np.zeros((len(x), self.n + 1))
        padded[:, : self.n] = x
        return padded[np.arange(len(self.slots))[:, np.newaxis] // self.blocks, self.slots]

    def scatter(self, y: np.ndarray) -> np.ndarray:
        """The points ``y`` of every block in player order: one row of n per game."""
        games = len(self.slots) // self.blocks
        out = np.empty((games, self.n + 1))
        out[np.arange(games).repeat(self.blocks)[:, np.newaxis], self.slots] = y
        return out[:, : self.n]


def _whole(mask: np.ndarray) -> _Layout:
    """The layout of the boolean stack ``mask`` with one block per game, its players in order."""
    games, n = mask.shape[0], mask.shape[-1]
    return _Layout(mask, np.broadcast_to(np.arange(n), (games, n)), n, 1)


# A stack's components are packed into blocks only where that cuts the
# work of a probe round (Newton's solves, the bracket and the
# eigenvalues) to _PACK_SHARE of the whole matrices' or less. A block of
# m players is taken to cost m^3 + _BLOCK_COST: each block is one more
# row of every stacked call. On the benchmark's sweep inputs a cost of
# 1000 leaves the n = 20 settings whole (packed, they ran 4-10% slower
# at 0.04-0.3 of the whole matrices' m^3) and packs the n = 40 and 60,
# density-0.03 settings (33-55% faster), on a 2-core x86-64 guest with
# one BLAS thread.
_PACK_SHARE = 0.25
_BLOCK_COST = 1000


def _first_fit(items: list, capacity: int) -> list:
    """The bin of each ``(game, size)`` item, packed first-fit into bins of ``capacity``, each game into its own bins."""
    bins, room, last = [], [], None
    for game, size in items:
        if game != last:
            room, last = [], game
        for b, left in enumerate(room):
            if left >= size:
                break
        else:
            b = len(room)
            room.append(capacity)
        room[b] -= size
        bins.append(b)
    return bins


def _pack(mask: np.ndarray) -> _Layout:
    """The layout of the boolean stack ``mask`` by connected components.

    m is the largest component of the stack. Each game's components are
    packed first-fit decreasing into blocks of m players, padded with
    silent, unlinked players; a block lists its players in index order.
    Every game gets as many blocks as the game that needs the most, its
    last ones all padding where it needs fewer. Where the blocks' work,
    m^3 + ``_BLOCK_COST`` each, exceeds ``_PACK_SHARE`` of the games'
    whole matrices', the layout is one block per game (:func:`_whole`).
    """
    games, n = mask.shape[0], mask.shape[-1]
    budget = _PACK_SHARE * games * (n**3 + _BLOCK_COST)

    def least(m):
        # a game needs at least n / m blocks of m players, which cost
        # (n / m)(m^3 + c): least at m = (c / 2)^(1/3), and growing above it
        m = max(m, (_BLOCK_COST / 2.0) ** (1.0 / 3.0))
        return games * n * (m**2 + _BLOCK_COST / m)

    # a component holds more players than any member interferes with
    if not games or least(0) > budget or least(int(mask.sum(axis=-1).max()) + 1) > budget:
        return _whole(mask)
    labels = _component_labels(mask)
    sizes = np.bincount((labels + n * np.arange(games)[:, np.newaxis]).ravel(), minlength=games * n)
    sizes = sizes.reshape(games, n)
    m = int(sizes.max())
    if least(m) > budget:
        return _whole(mask)
    # each game's components (named by their smallest member), largest first
    game, root = np.nonzero(sizes)
    size = sizes[game, root]
    order = np.lexsort((root, -size, game))
    bins = np.zeros((games, n), dtype=int)
    bins[game[order], root[order]] = _first_fit(zip(game[order].tolist(), size[order].tolist()), m)
    blocks = int(bins.max()) + 1
    if games * blocks * (m**3 + _BLOCK_COST) > budget:
        return _whole(mask)
    block = (blocks * np.arange(games)[:, np.newaxis] + np.take_along_axis(bins, labels, axis=1)).ravel()
    order = np.argsort(block, kind="stable")
    block = block[order]
    slots = np.full((games * blocks, m), n)
    slots[block, np.arange(len(block)) - np.searchsorted(block, block)] = order % n
    owner = np.arange(games).repeat(blocks)
    padded = np.zeros((games, n + 1, n + 1), dtype=bool)
    padded[:, :n, :n] = mask
    links = padded[owner[:, np.newaxis, np.newaxis], slots[:, :, np.newaxis], slots[:, np.newaxis, :]]
    return _Layout(links, slots, n, blocks)


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
