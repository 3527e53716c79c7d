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

    #: ``gauss``'s spare normal variate (``random.Random`` keeps it as an
    #: instance attribute; declared for :meth:`gauss_sampler`).
    gauss_next: float | None

    def __new__(cls, seed: int, name: str) -> RandomStream:
        # CPython 3.10's ``Random.__new__`` takes at most one argument.
        return super().__new__(cls, seed)

    def __init__(self, seed: int, name: str) -> None:
        super().__init__(seed)
        self.name = name
        self.initial_seed = seed

    def __repr__(self) -> str:
        return f"<RandomStream {self.name!r} seed={self.initial_seed}>"

    def __reduce__(self) -> tuple[typing.Any, ...]:
        # Random's own rebuilds with no arguments, which __new__ refuses.
        return type(self), (self.initial_seed, self.name), self.getstate()

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
        cdf, uniform = zipf_cdf(n, theta), self.random
        return lambda: bisect_left(cdf, uniform()) + 1

    def zipf_rank(self, n: int, theta: float) -> int:
        """One :meth:`zipf_sampler` draw."""
        return self.zipf_sampler(n, theta)()

    # The two samplers below restate CPython's ``betavariate`` (with the
    # ``gammavariate`` it calls) and ``gauss`` statement for statement,
    # with the per-call constants hoisted out of the draw.  Each draw
    # takes the same uniforms in the same order and does the same float
    # operations in the same order, so it returns the same bits.
    # CPython 3.10-3.13 ship identical bodies for all three, and
    # ``tests/test_sim_rng.py`` holds each sampler to the running
    # interpreter's stdlib.
    def beta_sampler(self, alpha: float, beta: float, low: float = 0.0,
                     high: float = 1.0) -> typing.Callable[[], float]:
        """A zero-argument draw of ``low + (high - low) *
        self.betavariate(alpha, beta)``, for sampling loops.

        ``betavariate`` is ``y / (y + gammavariate(beta))`` with ``y =
        gammavariate(alpha)``, or 0.0 when ``y`` is 0.  One call makes
        both gamma draws, one loop pass per shape, and each pass takes
        ``gammavariate``'s branch for its shape: Cheng's (1977) GB
        rejection above 1, an exponential at exactly 1, and Kennedy &
        Gentle's GS below 1.  ``betavariate`` scales both gamma draws by
        1.0, which IEEE arithmetic leaves unchanged, so that multiply is
        dropped.  The range is folded in so that a sampling loop pays one
        call per draw; the default range is exact too: the variate is
        never negative, and ``0.0 + 1.0 * v`` is ``v``.
        """
        if not (alpha > 0.0 and beta > 0.0):  # NaN fails too
            raise ValueError("beta_sampler: alpha and beta must be > 0.0")
        uniform, log, exp = self.random, math.log, math.exp
        span = high - low
        shapes = tuple(_gamma_constants(shape) for shape in (alpha, beta))

        def draw() -> float:
            y = 0.0
            for shape, c1, c2, c3 in shapes:
                if shape > 1.0:  # Cheng: c1, c2, c3 = ainv, bbb, ccc
                    while True:
                        u1 = uniform()
                        if not 1e-7 < u1 < 0.9999999:
                            continue
                        u2 = 1.0 - uniform()
                        v = log(u1 / (1.0 - u1)) / c1
                        x = shape * exp(v)
                        z = u1 * u1 * u2
                        r = c2 + c3 * v - x
                        if (r + _SG_MAGICCONST - 4.5 * z >= 0.0
                                or r >= log(z)):
                            break
                elif shape == 1.0:
                    x = -log(1.0 - uniform())
                else:  # GS: c1, c2, c3 = b, 1 / shape, shape - 1
                    while True:
                        p = c1 * uniform()
                        if p <= 1.0:
                            x = p ** c2
                        else:
                            x = -log((c1 - p) / shape)
                        u1 = uniform()
                        if p > 1.0:
                            if u1 <= x ** c3:
                                break
                        elif u1 <= exp(-x):
                            break
                if y:  # x is the second gamma draw
                    return low + span * (y / (y + x))
                if not x:  # y == 0: betavariate skips the second draw
                    break
                y = x
            return low + span * 0.0

        return draw

    def gauss_sampler(self, mu: float,
                      sigma: float) -> typing.Callable[[], float]:
        """A zero-argument draw of ``self.gauss(mu, sigma)``.

        Box-Muller makes normals in pairs.  The spare waits in this
        stream's own ``gauss_next``, where ``gauss`` keeps it, so draws
        may interleave with ``gauss`` calls, and ``getstate()`` (and so
        a pickle) sees the same state either way.
        """
        uniform, log, sqrt = self.random, math.log, math.sqrt
        cos, sin = math.cos, math.sin

        def draw() -> float:
            z = self.gauss_next
            self.gauss_next = None
            if z is None:
                x2pi = uniform() * _TWOPI
                g2rad = sqrt(-2.0 * log(1.0 - uniform()))
                z = cos(x2pi) * g2rad
                self.gauss_next = sin(x2pi) * g2rad
            return mu + z * sigma

        return draw


#: ``random``'s private module constants, computed as it computes them.
_LOG4 = math.log(4.0)
_SG_MAGICCONST = 1.0 + math.log(4.5)
_TWOPI = 2.0 * math.pi


def _gamma_constants(shape: float) -> tuple[float, float, float, float]:
    """``(shape, c1, c2, c3)``: what ``gammavariate(shape, 1.0)``
    recomputes on every call (or every rejection) for its branch."""
    if shape > 1.0:
        ainv = math.sqrt(2.0 * shape - 1.0)
        return shape, ainv, shape - _LOG4, shape + ainv
    if shape == 1.0:
        return shape, 0.0, 0.0, 0.0
    return shape, (math.e + shape) / math.e, 1.0 / shape, shape - 1.0


@typing.no_type_check
def zipf_cdf(n: int, theta: float) -> list[float]:
    """Cumulative Zipf(θ) weights over ranks 1..n, memoised per (n,
    theta): ``bisect_left(cdf, u)`` for a uniform ``u`` is a 0-based
    rank, as in :meth:`RandomStream.zipf_sampler`."""
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
