"""Reference helpers that only the tests use.

The package's commands never need these, so they live here and may import
``scipy.stats``, which no module of the package loads.
"""

import numpy as np
from scipy import stats


def symmetry_z(samples) -> float:
    """Skewness z-statistic; |z| > 3 rejects symmetry at the 3-sigma level."""
    stat, _pvalue = stats.skewtest(np.asarray(samples, dtype=float))
    return float(stat)
