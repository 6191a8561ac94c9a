"""Reference tie count and exceedance rule.

``count_ties`` uses one ``np.unique`` per margin; ``empirical._rank`` counts
the same ties from the equal neighbours of its ranking sort, without another
sort, and the tests compare the two.  ``two_branch_angles`` selects
exceedances by a separate p = inf branch and uncapped powers, which overflow
for large p; ``empirical._exceedances`` uses one capped rule for every p.
"""

from __future__ import annotations

import math

import numpy as np


def count_ties(sample: np.ndarray) -> int:
    """Number of tied (duplicated) values across both margins."""
    sample = np.asarray(sample, dtype=float)
    total = 0
    for j in range(2):
        col = sample[:, j]
        total += int(col.size - np.unique(col).size)
    return total


def two_branch_angles(ranks: np.ndarray, k: int, p: float) -> np.ndarray:
    """Sorted pseudo-angles of the points with (k/s_1)^p + (k/s_2)^p >= 1, or
    with min(s_1, s_2) <= k at p = inf, where s_j = n + 1 - R_j."""
    s = (ranks.shape[0] + 1 - ranks).astype(float)
    if math.isinf(p):
        mask = np.minimum(s[:, 0], s[:, 1]) <= k
    else:
        with np.errstate(over="ignore"):  # an infinite power still exceeds
            mask = np.power(k / s[:, 0], p) + np.power(k / s[:, 1], p) >= 1.0
    return np.sort(np.arctan2(s[mask, 1], s[mask, 0]))
