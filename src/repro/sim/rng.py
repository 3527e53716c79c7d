"""Named, seeded random-number streams.

Every stochastic component in the library (trace generation, quality-contract
sampling, the QUTS ``ξ`` draw, ...) pulls from its *own* named stream derived
from a single master seed.  This keeps experiments exactly reproducible and
— crucially for comparisons — means that changing, say, the scheduler's
random draws does not perturb the workload's random draws.
"""

from __future__ import annotations

import hashlib
import math
import random
import typing
from bisect import bisect_left


def _derive_seed(master_seed: int, name: str) -> int:
    """Derive a stable 64-bit seed for ``name`` from ``master_seed``."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStream(random.Random):
    """A ``random.Random`` with a name, for debuggability."""

    def __init__(self, seed: int, name: str) -> None:
        super().__init__(seed)
        self.name = name
        self.initial_seed = seed

    def __repr__(self) -> str:
        return f"<RandomStream {self.name!r} seed={self.initial_seed}>"

    # ------------------------------------------------------------------
    # Distribution helpers used throughout the workload generator
    # ------------------------------------------------------------------
    def exponential(self, mean: float) -> float:
        """Exponential variate with the given *mean* (not rate)."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        return self.expovariate(1.0 / mean)

    def zipf_sampler(self, n: int,
                     theta: float) -> typing.Callable[[], int]:
        """A zero-argument draw of a 1-based rank from a Zipf(θ)
        distribution over ``n`` items, for sampling loops.

        Inverse CDF on the (cached) cumulative harmonic weights, looked
        up once: each call takes one uniform from this stream and
        returns the leftmost rank whose cumulative weight reaches it
        (``cdf[-1] == 1.0 > u``, so the rank never exceeds ``n``).
        """
        if n <= 0:
            raise ValueError("n must be positive")
        cdf, uniform = _zipf_cdf(n, theta), self.random
        return lambda: bisect_left(cdf, uniform()) + 1

    def zipf_rank(self, n: int, theta: float) -> int:
        """One :meth:`zipf_sampler` draw."""
        return self.zipf_sampler(n, theta)()


@typing.no_type_check
def _zipf_cdf(n: int, theta: float) -> list[float]:
    """Cumulative Zipf weights, memoised per (n, theta)."""
    key = (n, round(theta, 9))
    cached = _ZIPF_CACHE.get(key)
    if cached is not None:
        return cached
    weights = [1.0 / (rank ** theta) for rank in range(1, n + 1)]
    total = math.fsum(weights)
    acc = 0.0
    cdf = []
    for w in weights:
        acc += w / total
        cdf.append(acc)
    cdf[-1] = 1.0
    _ZIPF_CACHE[key] = cdf
    return cdf


_ZIPF_CACHE: dict[tuple[int, float], list[float]] = {}


class StreamRegistry:
    """Factory handing out named :class:`RandomStream` objects.

    Streams are created lazily and cached, so two requests for the same name
    return the same stream object.
    """

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = master_seed
        self._streams: dict[str, RandomStream] = {}

    def __repr__(self) -> str:
        return (f"<StreamRegistry master_seed={self.master_seed} "
                f"streams={sorted(self._streams)}>")

    def stream(self, name: str) -> RandomStream:
        """The stream for ``name``, creating it on first use."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        stream = RandomStream(_derive_seed(self.master_seed, name), name)
        self._streams[name] = stream
        return stream

    def spawn(self, name: str) -> "StreamRegistry":
        """A child registry whose master seed is derived from ``name``.

        Useful for giving each repetition of an experiment an independent
        but reproducible seed universe.
        """
        return StreamRegistry(_derive_seed(self.master_seed, f"child:{name}"))
