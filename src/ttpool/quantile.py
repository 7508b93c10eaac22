"""Every test's decision: ``monte_carlo`` against reference draws (Phipson and
Smyth, 2010) or ``normal_decision`` against a normal law, on the inf-convention
quantile; and the standard-normal quantile ``ndtri``."""

from __future__ import annotations

import math

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

    The critical value is ndtri(1 - alpha) scale, p the upper tail (at
    scale 0, a point mass at 0).  The two round apart, so at the critical
    value p <= alpha may miss the decision.
    """
    critical = float(ndtri(1.0 - alpha) * scale)
    if scale == 0.0:
        p_value = float(statistic <= 0.0)
    else:
        p_value = 0.5 * math.erfc(statistic / (scale * math.sqrt(2.0)))
    return critical, p_value, bool(statistic > critical)


# Cephes ndtri's constants: sqrt(2 pi), exp(-2), and the coefficients of its
# central (P0/Q0) and tail (P1/Q1 to x = 8, P2/Q2 beyond) rational approximations.
_S2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189

_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)
_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)
_P2 = (
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    """Horner evaluation of the polynomial with coefficients ``coef``, highest degree first."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple[float, ...]) -> float:
    """``_polevl`` with a leading coefficient of 1 that ``coef`` leaves out."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def ndtri(p: float) -> float:
    """The standard-normal quantile: x with Phi(x) = p; -inf at 0, inf at 1, NaN outside [0, 1].

    A port of the Cephes ``ndtri`` that SciPy's ``scipy.special.ndtri`` and
    ``scipy.stats.norm.ppf`` wrap, with the same constants and the same
    order of operations, so it returns the very same bits.  Between
    exp(-2) and 1 - exp(-2) it takes a rational approximation in p - 1/2.
    Nearer 0, or nearer 1 through 1 - p, it takes x = sqrt(-2 log p) less
    a rational correction in 1/x: one up to x = 8 (p = exp(-32)) and one
    beyond.
    """
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    if not 0.0 < p < 1.0:
        return math.nan
    upper = p > 1.0 - _EXP_M2
    y = 1.0 - p if upper else p
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    x = x0 - x1
    return x if upper else -x
