"""Shared generators for property tests: random simplicial complexes and
random subcomplex covers."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from persistence_oracle import complex_betti


def random_complex(rng: np.random.Generator, max_vertices: int = 7) -> list[tuple[int, ...]]:
    """Flag complex of a random graph, truncated to dimension <= 2."""
    n = int(rng.integers(3, max_vertices + 1))
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.55:
                adj[i, j] = adj[j, i] = True
    simplices: list[tuple[int, ...]] = [(v,) for v in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        if adj[i, j]:
            simplices.append((i, j))
    for i, j, k in itertools.combinations(range(n), 3):
        if adj[i, j] and adj[i, k] and adj[j, k]:
            simplices.append((i, j, k))
    return simplices


def face_closure(simplices) -> set[tuple[int, ...]]:
    out = set()
    for s in simplices:
        s = tuple(s)
        for size in range(1, len(s) + 1):
            out.update(itertools.combinations(s, size))
    return out


def random_cover(
    rng: np.random.Generator, simplices: list[tuple[int, ...]], parts: int
) -> list[set[tuple[int, ...]]]:
    """Split a complex into ``parts`` face-closed subcomplexes whose union
    is the whole complex (every simplex lands in at least one part)."""
    cover = [set() for _ in range(parts)]
    for s in simplices:
        members = [p for p in range(parts) if rng.random() < 0.6]
        if not members:
            members = [int(rng.integers(0, parts))]
        for p in members:
            cover[p].add(tuple(s))
    return [face_closure(part) for part in cover]


def betti_padded(simplices, dims: int = 3) -> list[int]:
    """complex_betti padded with zeros so every queried dim is defined."""
    values = complex_betti(sorted(simplices)) if simplices else []
    return list(values) + [0] * (dims - len(values))


@pytest.fixture(scope="session")
def rng_factory():
    def make(seed: int) -> np.random.Generator:
        return np.random.default_rng(seed)

    return make
