"""Reference tie count: one ``np.unique`` per margin.

``empirical._rank`` counts the same ties from the equal neighbours of its
ranking sort, without another sort; the tests compare the two.
"""

from __future__ import annotations

import numpy as np


def count_ties(sample: np.ndarray) -> int:
    """Number of tied (duplicated) values across both margins."""
    sample = np.asarray(sample, dtype=float)
    total = 0
    for j in range(2):
        col = sample[:, j]
        total += int(col.size - np.unique(col).size)
    return total
