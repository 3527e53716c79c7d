"""The stock universe: ticker symbols, popularity ranks, and initial prices.

The paper's workload indexes everything by NYSE ticker symbol.  We generate
a deterministic universe of synthetic tickers and assign each stock two
popularity ranks — one for queries, one for updates — drawn as independent
permutations.  Independence matches the key Figure 5(c) observation: "many
of the updates occur on the stocks with very few queries" (with ~6× more
updates than queries overall, most per-stock points fall below the
diagonal).
"""

from __future__ import annotations

import string

from repro.sim.rng import RandomStream

_LETTERS = string.ascii_uppercase


def ticker_symbol(index: int) -> str:
    """A deterministic ticker for ``index`` (0 -> "A", 25 -> "Z",
    26 -> "AA", ...), NYSE-style base-26."""
    if index < 0:
        raise ValueError("index must be non-negative")
    chars: list[str] = []
    index += 1  # bijective base-26
    while index:
        index, rem = divmod(index - 1, 26)
        chars.append(_LETTERS[rem])
    return "".join(reversed(chars))


class StockUniverse:
    """``n`` stocks with query/update popularity ranks and initial prices.

    ``popularity_correlation`` is the probability that a rank keeps the
    same stock in both dimensions — 0 gives fully independent popularity,
    1 makes the hottest-queried stock also the hottest-updated one.  The
    paper's trace shows both effects: wide scatter in Figure 5(c), yet
    "jittery investors" chasing the stocks that are trading hard.
    """

    def __init__(self, n_stocks: int, rng: RandomStream,
                 popularity_correlation: float = 0.0) -> None:
        if n_stocks <= 0:
            raise ValueError(f"n_stocks must be positive, got {n_stocks}")
        if not 0.0 <= popularity_correlation <= 1.0:
            raise ValueError("popularity_correlation must be in [0, 1]")
        self.n_stocks = n_stocks
        self.symbols = [ticker_symbol(i) for i in range(n_stocks)]

        # Which stock occupies each popularity rank, per dimension.
        # rank 0 = most popular.
        query_order = list(range(n_stocks))
        rng.shuffle(query_order)

        # Update ranks: keep the query-rank stock with probability
        # `popularity_correlation`; permute the remainder among themselves.
        kept = [rng.random() < popularity_correlation
                for __ in range(n_stocks)]
        free_ranks = [r for r in range(n_stocks) if not kept[r]]
        free_stocks = [query_order[r] for r in free_ranks]
        rng.shuffle(free_stocks)
        update_order = list(query_order)
        for rank, stock in zip(free_ranks, free_stocks):
            update_order[rank] = stock

        #: Ticker of the ``rank``-th most query-popular stock (0-based).
        self.query_ranked = [self.symbols[i] for i in query_order]
        #: Ticker of the ``rank``-th most update-popular stock (0-based).
        self.update_ranked = [self.symbols[i] for i in update_order]

        #: Initial prices, dollars; a plausible spread for a price walk.
        self.initial_prices = {
            symbol: rng.uniform(5.0, 250.0) for symbol in self.symbols}

    def __repr__(self) -> str:
        return f"<StockUniverse n={self.n_stocks}>"
