"""Open-loop JSON-lines client for the live gateway's TCP front.

``repro.serve.loadgen.drive`` calls the gateway in-process and records
the *gateway's* response time, which starts at arrival: a stall that
makes the generator send late is invisible to it.  This client speaks
the wire protocol instead and keeps honest clocks:

* the schedule (``build_schedule``) is fixed before the run and every
  request is stamped with the instant it was **due**;
* the sender never waits for a reply — a slow server faces a growing
  backlog, it does not slow the offered load;
* latency runs from the due instant to the instant the final reply line
  is parsed, so time lost to late sends, retries and backoff counts;
* how late each first send went out is recorded (``lag_ms``), so a run
  that measured the generator instead of the gateway can be thrown away.

Retries follow the library's own client policy (``RetryPolicy`` with a
``RetryBudget``): a ``backpressure`` or ``shed`` reply is retried after
the server's hint plus jittered backoff while the budget lasts.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import time
import typing

from repro.serve import (DEADLINE_FACTOR, Arrival, RetryBudget, RetryPolicy,
                         qc_to_wire)
from repro.sim.rng import StreamRegistry

#: After the last scheduled send, how long to wait for stragglers before
#: declaring their requests unanswered (every query's deadline is far
#: shorter; this only bounds a hung server).
REPLY_GRACE_S = 30.0
#: TCP connections the requests are spread over, round robin.
CONNECTIONS = 2
#: The client's retry budget: retries per first send, and per request.
RETRY_FRACTION = 0.1
MAX_RETRIES = 3


@dataclasses.dataclass
class Offer:
    """One scheduled request and what became of it."""

    arrival: Arrival
    #: The request line without its ``{"id": N, `` head (ids are per
    #: send, so retries stay distinguishable on the wire).
    tail: bytes
    #: ``min(lifetime, 4 x rtmax)`` for queries, None for updates.
    limit_ms: float | None
    sends: int = 0
    retries: int = 0
    lag_ms: float = 0.0
    #: Final reply (None: no reply line ever arrived).
    reply: dict[str, typing.Any] | None = None
    latency_ms: float | None = None

    @property
    def is_query(self) -> bool:
        return self.arrival.kind == "query"

    @property
    def outcome(self) -> str | None:
        return None if self.reply is None else self.reply["outcome"]

    @property
    def within_limit(self) -> bool:
        return (self.outcome == "completed" and self.limit_ms is not None
                and typing.cast(float, self.latency_ms) <= self.limit_ms)


def make_offers(schedule: typing.Sequence[Arrival]) -> list[Offer]:
    """Pre-encode the schedule so the timed sender only concatenates."""
    offers = []
    for arrival in schedule:
        if arrival.qc is not None:
            body: dict[str, typing.Any] = {
                "op": "query", "items": list(arrival.items),
                "exec_ms": arrival.exec_ms, "qc": qc_to_wire(arrival.qc)}
            limit = arrival.qc.lifetime
            if 0 < arrival.qc.rt_max < float("inf"):
                limit = min(limit, DEADLINE_FACTOR * arrival.qc.rt_max)
        else:
            body = {"op": "update", "item": arrival.items[0],
                    "value": arrival.value, "exec_ms": arrival.exec_ms}
            limit = None
        tail = (json.dumps(body)[1:] + "\n").encode()
        offers.append(Offer(arrival, tail, limit))
    return offers


class OpenLoopClient:
    """Sends ``offers`` on schedule over ``CONNECTIONS`` TCP streams."""

    def __init__(self, offers: typing.Sequence[Offer], seed: int) -> None:
        self.offers = offers
        self.retry = RetryPolicy(
            StreamRegistry(seed).stream("bench.client.retry"),
            max_retries=MAX_RETRIES,
            budget=RetryBudget(fraction=RETRY_FRACTION))
        self._writers: list[asyncio.StreamWriter] = []
        self._readers: list[asyncio.Task[None]] = []
        #: wire id -> offer index, for every send awaiting its reply.
        self._inflight: dict[int, int] = {}
        self._next_id = 0
        self._unresolved = len(offers)
        self._all_resolved = asyncio.Event()
        self._origin = 0.0
        self._error: BaseException | None = None
        #: Wall seconds from the first due instant's origin to the last
        #: reply; process CPU seconds over the same span.
        self.wall_s = 0.0
        self.cpu_s = 0.0

    async def connect(self, host: str, port: int) -> None:
        for _ in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection(host, port)
            self._writers.append(writer)
            self._readers.append(asyncio.get_running_loop().create_task(
                self._read_replies(reader)))

    async def close(self) -> None:
        for writer in self._writers:
            writer.close()
        for writer in self._writers:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        for task in self._readers:
            await task
        if self._error is not None:
            raise self._error

    # ------------------------------------------------------------------
    async def run(self) -> None:
        """Send the whole schedule open-loop and collect every reply."""
        clock = time.perf_counter
        cpu_start = time.process_time()
        self._origin = origin = clock()
        if not self.offers:
            self._all_resolved.set()
        for index, offer in enumerate(self.offers):
            due = origin + offer.arrival.at_ms / 1000.0
            wait = due - clock()
            if wait > 0:
                await asyncio.sleep(wait)
            self.retry.budget.on_first_send()  # type: ignore[union-attr]
            offer.lag_ms = (clock() - due) * 1000.0
            self._send(index)
        try:
            await asyncio.wait_for(self._all_resolved.wait(), REPLY_GRACE_S)
        except asyncio.TimeoutError:
            pass  # unanswered offers keep reply=None and count as failed
        self.wall_s = clock() - origin
        self.cpu_s = time.process_time() - cpu_start

    def _send(self, index: int) -> None:
        wire_id = self._next_id
        self._next_id += 1
        self._inflight[wire_id] = index
        self.offers[index].sends += 1
        writer = self._writers[wire_id % len(self._writers)]
        writer.write(b'{"id": %d, ' % wire_id + self.offers[index].tail)

    async def _read_replies(self, reader: asyncio.StreamReader) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    return
                now = time.perf_counter()
                reply = json.loads(line)
                index = self._inflight.pop(reply["id"])
                self._on_reply(index, reply, now)
        except Exception as exc:  # noqa: BLE001 - reported by close()
            # A reply we cannot parse or match means the numbers are
            # wrong; stop waiting and let close() raise it.
            self._error = exc
            self._all_resolved.set()

    def _on_reply(self, index: int, reply: dict[str, typing.Any],
                  now: float) -> None:
        offer = self.offers[index]
        if (reply["outcome"] in ("backpressure", "shed")
                and self.retry.should_retry(offer.retries)):
            backoff_ms = ((reply.get("retry_after_ms") or 0.0)
                          + self.retry.backoff_ms(offer.retries))
            offer.retries += 1
            asyncio.get_running_loop().call_later(
                backoff_ms / 1000.0, self._send, index)
            return
        offer.reply = reply
        due = self._origin + offer.arrival.at_ms / 1000.0
        offer.latency_ms = (now - due) * 1000.0
        self._unresolved -= 1
        if self._unresolved == 0:
            self._all_resolved.set()
