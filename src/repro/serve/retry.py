"""Client-side retry policy: jittered exponential backoff + a budget.

Naive retries *amplify* overload: every shed or backpressured request
comes straight back, so an overloaded server sees its arrival rate
multiply exactly when it can least afford it (the classic retry storm).
Two standard defenses, composed here:

* **jittered exponential backoff** — retry ``k`` waits
  ``base · factor^k`` ms scaled by a uniform jitter draw from a *named
  deterministic stream*, so synchronized clients cannot re-converge
  into bursts and test runs stay reproducible;
* **retry budget** — a token bucket that earns a fraction of a token
  per *first-attempt* send and spends one token per retry.  With
  ``fraction = b`` and zero initial balance, retries can never exceed
  ``b ×`` first sends, so total client sends are bounded by
  ``(1 + b) × offered load`` no matter how the server behaves.  This
  bound is asserted in the tests and in the acceptance criteria.
"""

from __future__ import annotations

from repro.sim.rng import RandomStream


class RetryBudget:
    """Token bucket bounding retries to a fraction of first sends."""

    def __init__(self, fraction: float = 0.1,
                 max_tokens: float = 100.0) -> None:
        if not fraction >= 0:
            raise ValueError(f"fraction must be >= 0, got {fraction}")
        if max_tokens <= 0:
            raise ValueError(f"max_tokens must be positive, got {max_tokens}")
        self.fraction = fraction
        self.max_tokens = max_tokens
        self._tokens = 0.0
        #: Accounting, for tests and reports.
        self.first_sends = 0
        self.retries_granted = 0
        self.retries_denied = 0

    def on_first_send(self) -> None:
        """A fresh request went out: earn ``fraction`` of a token."""
        self.first_sends += 1
        self._tokens = min(self._tokens + self.fraction, self.max_tokens)

    def try_spend(self) -> bool:
        """Spend one token for a retry; False when the budget is dry."""
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            self.retries_granted += 1
            return True
        self.retries_denied += 1
        return False

    @property
    def total_sends(self) -> int:
        return self.first_sends + self.retries_granted


class RetryPolicy:
    """Jittered exponential backoff drawn from a deterministic stream."""

    def __init__(self, rng: RandomStream,
                 base_ms: float = 5.0,
                 factor: float = 2.0,
                 max_backoff_ms: float = 250.0,
                 max_retries: int = 3,
                 budget: RetryBudget | None = None) -> None:
        if base_ms <= 0:
            raise ValueError(f"base_ms must be positive, got {base_ms}")
        if factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {factor}")
        if max_backoff_ms < base_ms:
            raise ValueError("max_backoff_ms must be >= base_ms")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self._rng = rng
        self.base_ms = base_ms
        self.factor = factor
        self.max_backoff_ms = max_backoff_ms
        self.max_retries = max_retries
        self.budget = budget

    def backoff_ms(self, attempt: int) -> float:
        """Full-jitter backoff for retry number ``attempt`` (0-based)."""
        ceiling = min(self.base_ms * self.factor ** attempt,
                      self.max_backoff_ms)
        return ceiling * self._rng.random()

    def should_retry(self, attempt: int) -> bool:
        """May retry number ``attempt`` (0-based) go out?

        Checks the attempt cap first, then spends from the budget (when
        one is attached) so denied retries are visible in its counters.
        """
        if attempt >= self.max_retries:
            return False
        if self.budget is not None:
            return self.budget.try_spend()
        return True
