"""Deterministic derivation of independent RNG streams from one base seed.

Every source of randomness in a run (workload generation, per-flow channel
draws, the strategy-choice draw of probabilistic mixtures) gets its own
stream so that replaying a run with the same base seed is bit-identical and
so that channel draws never depend on scheduling decisions.  A weighted
pick, of a mixture's child or of a file-size class, bisects ``choice_bounds``.
"""

from __future__ import annotations

import math
import random
from itertools import accumulate

from .errors import ParameterError

WORKLOAD_STREAM = 0
CHANNEL_STREAM = 1
CHOICE_STREAM = 2

_SUB_SPACE = 2**36


def stream_seed(base_seed: int, tag: int, sub: int = 0) -> int:
    """Map a (base seed, stream tag, sub-stream id) triple to a unique integer."""
    return (base_seed % 2**64) * 2**40 + tag * _SUB_SPACE + (sub % _SUB_SPACE)


def stream(base_seed: int, tag: int, sub: int = 0) -> random.Random:
    return random.Random(stream_seed(base_seed, tag, sub))


def skip(rng: random.Random, n: int) -> None:
    """Advance ``rng`` past its next ``n`` ``random()`` draws without computing them.

    ``random()`` consumes two 32-bit Mersenne Twister outputs and
    ``getrandbits(64 * n)`` consumes 2n, so both leave the same state.
    """
    rng.getrandbits(64 * n)


def choice_bounds(weights) -> list[float]:
    """Running sums of ``weights`` for a pick by ``bisect_right(bounds, u)``.

    The weights must be non-negative and sum to 1 within 1e-9.  The sum at
    the last positive weight is +inf, so a u at or above a total short of 1
    picks that entry, and an entry of zero weight is never picked.
    """
    if not all(w >= 0.0 for w in weights) or not abs(sum(weights) - 1.0) <= 1e-9:
        raise ParameterError(f"weights {list(weights)} must be non-negative and sum to 1")
    last = max(i for i, w in enumerate(weights) if w > 0.0)
    return [*accumulate(weights[:last]), math.inf]
