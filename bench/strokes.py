"""Seeded, offline two-class 28x28 "strokes" images with planted evidence.

Every image holds `DISTRACTORS` short strokes at random places. Each class
also owns one straight stroke of `PLANTED` pixels at a position fixed by
the seed; an image of class c shows class c's stroke and nothing else on
either planted stroke. So the label is readable only from those pixels:
an explainer that selects its class's stroke (k = 25) leaves nothing
predictive behind, which lets FU-M fall below FS-M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SIDE = 28
D = SIDE * SIDE
PLANTED = 25
DISTRACTORS = 4
DIRECTIONS = ((0, 1), (1, 0), (1, 1), (1, -1))


@dataclass(frozen=True)
class Strokes:
    x: np.ndarray        # (n, 784), pixel intensities in [0, 1]
    labels: np.ndarray   # (n,) in {0, 1}
    planted: tuple       # per class, the flat pixel indices of its stroke


def _stroke(r0: int, c0: int, dr: int, dc: int, length: int) -> np.ndarray:
    """Flat indices of a straight stroke, cut off at the image border."""
    steps = np.arange(length)
    rows, cols = r0 + dr * steps, c0 + dc * steps
    keep = (rows >= 0) & (rows < SIDE) & (cols >= 0) & (cols < SIDE)
    return rows[keep] * SIDE + cols[keep]


def _planted_pair(rng: np.random.Generator) -> tuple:
    """Two disjoint full-length strokes, one per class."""
    while True:
        pair = []
        for _ in range(2):
            while True:
                dr, dc = DIRECTIONS[rng.integers(len(DIRECTIONS))]
                idx = _stroke(int(rng.integers(SIDE)), int(rng.integers(SIDE)), dr, dc, PLANTED)
                if idx.size == PLANTED:
                    pair.append(idx)
                    break
        if not np.intersect1d(pair[0], pair[1]).size:
            return tuple(pair)


def generate_strokes(n: int, seed: int) -> Strokes:
    """`n` images whose distribution, planted strokes included, is fixed by `seed`."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    planted = _planted_pair(rng)
    labels = rng.integers(0, 2, size=n)
    x = np.zeros((n, D))
    for i in range(n):
        for _ in range(DISTRACTORS):
            dr, dc = DIRECTIONS[rng.integers(len(DIRECTIONS))]
            idx = _stroke(int(rng.integers(SIDE)), int(rng.integers(SIDE)), dr, dc,
                          int(rng.integers(6, 15)))
            x[i, idx] = np.maximum(x[i, idx], rng.uniform(0.3, 1.0))
    x[:, np.concatenate(planted)] = 0.0
    for c in (0, 1):
        rows = np.flatnonzero(labels == c)
        level = rng.uniform(0.6, 1.0, size=(rows.size, 1))
        jitter = rng.uniform(0.85, 1.0, size=(rows.size, PLANTED))
        x[np.ix_(rows, planted[c])] = level * jitter
    return Strokes(x=x, labels=labels, planted=planted)
