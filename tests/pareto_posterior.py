"""Pareto-posterior file-size helpers checked by acceptance criteria 4 and 5.

No strategy reads them: T and TK estimate remaining time from the served
bytes and the observed rates.  As far as the formula goes, T matches this
posterior at shape 2: ``expected_file_size(s, 2) == 2 * s``, so ``served``
more bytes remain, and T's constant turns them into time at the harmonic
mean of the default channel band (README, Strategies).  Whether the source
paper derived T this way, its abstract does not say.
"""

from __future__ import annotations

from cellsched.errors import ParameterError


def expected_file_size(served: float, alpha: float) -> float:
    """Posterior mean of a Pareto-distributed size given ``served`` already delivered.

    Conditioning a Pareto(shape ``alpha``) size on exceeding ``served``
    gives mean ``alpha/(alpha-1) * served``; with nothing observed yet the
    estimate is 0.
    """
    if not alpha > 1.0:
        raise ParameterError(f"alpha={alpha} must exceed 1 for a finite mean")
    if served < 0.0:
        raise ParameterError(f"served={served} must be non-negative")
    if served == 0.0:
        return 0.0
    return alpha / (alpha - 1.0) * served


def pareto_posterior_density(size: float, served: float, alpha: float) -> float:
    """Density of a Pareto(``alpha``) file size conditioned on exceeding ``served``.

    p(size) = alpha * served**alpha / size**(alpha+1) for size >= served > 0;
    its mean is ``expected_file_size(served, alpha)``.
    """
    if not alpha > 1.0:
        raise ParameterError(f"alpha={alpha} must exceed 1")
    if not served > 0.0:
        raise ParameterError(f"served={served} must be positive to condition on")
    if size < served:
        return 0.0
    return alpha * served**alpha / size ** (alpha + 1.0)
