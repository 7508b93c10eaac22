"""Every test's decision: ``monte_carlo`` against reference draws (Phipson and
Smyth, 2010) on the inf-convention quantile, or ``normal_decision`` against a
normal law, whose quantile is the standard library's ``NormalDist.inv_cdf``."""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from .errors import ConfigError


def inf_quantile(values: np.ndarray, level: float) -> float:
    """Smallest realized value u with ecdf(u) >= level.

    This is inf{u: (1/B) sum 1{v_b <= u} >= level} over the realized
    reference multiset, so the returned critical value is always one of
    the reference values.
    """
    v = np.sort(np.asarray(values, dtype=float))
    if v.size == 0:
        raise ValueError("empty reference set")
    k = math.ceil(level * v.size)
    k = min(max(k, 1), v.size)
    return float(v[k - 1])


def monte_carlo(statistic: float, draws: np.ndarray, alpha: float, observed_joins: bool) -> tuple:
    """(critical value, p-value, reject) of ``statistic`` against reference ``draws``.

    The reference set is ``draws``, joined by the statistic when
    ``observed_joins`` is set (the B+1 convention); empty, it is a
    ``ConfigError``.  The critical value is its inf-quantile at 1 - alpha
    and p the share of it at or above the statistic, so with
    k = ceil((1 - alpha) |ref|), statistic > critical iff p |ref| <= |ref| - k
    iff p <= alpha.
    """
    reference = np.asarray(draws, dtype=float)
    if observed_joins:
        reference = np.append(reference, statistic)
    if reference.size == 0:
        raise ConfigError("empty reference set: draw at least one resample")
    critical = inf_quantile(reference, 1.0 - alpha)
    p_value = np.count_nonzero(reference >= statistic) / reference.size
    return critical, p_value, bool(statistic > critical)


def normal_decision(statistic: float, scale: float, alpha: float) -> tuple:
    """(critical value, p-value, reject) of ``statistic`` against N(0, scale^2).

    The critical value is z_{1-alpha} scale, taken as -z_alpha scale so
    that 1 - alpha is never rounded: it is finite for every alpha in (0, 1)
    (Wichura's AS 241, within a few ulps of SciPy's ``norm.ppf``).  p is
    the upper tail (at scale 0, a point mass at 0).  The two round apart,
    so at the critical value p <= alpha may miss the decision.
    """
    # + 0.0 turns the -0.0 of alpha = 0.5 into 0.0.
    critical = float(-NormalDist().inv_cdf(alpha) * scale + 0.0)
    if scale == 0.0:
        p_value = float(statistic <= 0.0)
    else:
        p_value = 0.5 * math.erfc(statistic / (scale * math.sqrt(2.0)))
    return critical, p_value, bool(statistic > critical)

