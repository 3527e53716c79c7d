"""Micro scaling points: one layer's primitive at a stated size.

Each point is the minimum over ``ROUNDS`` passes of a fixed operation
count, calls only public functions, and runs once per ``--trace``
invocation (outside every timed region).  They exist so a later change
to one primitive has a number that moves before the end-to-end one
does, and so the depth dependence of the queues is a curve rather than
a single point.
"""

from __future__ import annotations

import json
import time
import typing

from repro.db.transactions import Query
from repro.qc.contracts import QualityContract
from repro.scheduling.priorities import VRDPriority
from repro.scheduling.queues import TransactionQueue
from repro.serve import GatewayReply, qc_to_wire
from repro.serve.protocol import decode_request, encode_reply
from repro.shard.ring import HashRing
from repro.sim import Environment
from repro.workload.synthetic import StockWorkloadGenerator, WorkloadSpec

ROUNDS = 5

#: Shallow kernel: one ticker, queue depth ~1.
SHALLOW_EVENTS = 50_000
#: Deep kernel: pending ms-quantised deadline timeouts, ~100 per
#: calendar bucket (the shape of ``benchmarks/test_kernel_throughput``'s
#: one-million backlog, at a fifth of its size to stay cheap).
DEEP_EVENTS = 200_000
DEEP_HORIZON_MS = 2_000
#: Push+pop pairs timed at each live queue depth.
QUEUE_OPS = 20_000
QUEUE_DEPTHS = (100, 10_000, 100_000)
CALL_OPS = 20_000
#: Trace generation: one simulated minute (~19k transactions).
GENERATE_MS = 60_000.0


def _best(pass_: typing.Callable[[], float]) -> float:
    """Seconds of the fastest of ``ROUNDS`` passes."""
    return min(pass_() for _ in range(ROUNDS))


def _shallow_kernel() -> float:
    env = Environment()

    def ticker() -> typing.Iterator[typing.Any]:
        for _ in range(SHALLOW_EVENTS):
            yield env.timeout(1.0)

    env.process(ticker())
    start = time.perf_counter()
    env.run()
    return time.perf_counter() - start


def _deep_kernel() -> float:
    env = Environment()
    start = time.perf_counter()
    for i in range(DEEP_EVENTS):
        env.timeout(float((i * 7919) % DEEP_HORIZON_MS))
    env.run()
    return time.perf_counter() - start


def _contract() -> QualityContract:
    return QualityContract.step(30.0, 75.0, 20.0, 1.0)


def _queue_at_depth(depth: int) -> float:
    """Fastest pass of push+pop pairs on a VRD-ordered queue that holds
    ``depth`` live queries throughout (built once, reused by each pass)."""
    contract = _contract()
    queue = TransactionQueue(VRDPriority(), name="micro")
    for i in range(depth):
        queue.push(Query(float(i), 5.0, ("S0001",), contract))
    arrival = float(depth)

    def pass_() -> float:
        nonlocal arrival
        fresh = [Query(arrival + i, 5.0, ("S0001",), contract)
                 for i in range(QUEUE_OPS)]
        arrival += QUEUE_OPS
        start = time.perf_counter()
        for query in fresh:
            queue.push(query)
            queue.pop()
        return time.perf_counter() - start

    return _best(pass_)


def _evaluate() -> float:
    contract = _contract()
    start = time.perf_counter()
    for i in range(CALL_OPS):
        contract.evaluate(float(i % 150), float(i % 3))
    return time.perf_counter() - start


def _ring_owner() -> float:
    ring = HashRing(4, seed=1, weights={shard: 4 for shard in range(4)})
    keys = [f"S{i:04d}" for i in range(CALL_OPS)]
    start = time.perf_counter()
    for key in keys:
        ring.owner(key)
    return time.perf_counter() - start


def _decode() -> float:
    line = json.dumps({"id": 7, "op": "query", "items": ["S0012"],
                       "exec_ms": 3.2,
                       "qc": qc_to_wire(_contract())}).encode() + b"\n"
    start = time.perf_counter()
    for _ in range(CALL_OPS):
        decode_request(line)
    return time.perf_counter() - start


def _encode() -> float:
    reply = GatewayReply("completed", 7, response_time_ms=6.8,
                         qos_profit=30.0, qod_profit=20.0, staleness=0.0,
                         values={"S0012": 101.5})
    start = time.perf_counter()
    for i in range(CALL_OPS):
        encode_reply(i, reply)
    return time.perf_counter() - start


def _generate() -> tuple[float, int]:
    """``(seconds, transactions generated)`` for one simulated minute."""
    start = time.perf_counter()
    trace = StockWorkloadGenerator(WorkloadSpec().scaled(GENERATE_MS),
                                   7).generate()
    return (time.perf_counter() - start,
            len(trace.queries) + len(trace.updates))


def run_micro() -> dict[str, float]:
    """Every ``*.micro.*`` per-layer metric."""
    metrics = {
        "sim.micro.shallow_events_per_s":
            SHALLOW_EVENTS / _best(_shallow_kernel),
        "sim.micro.deep_events_per_s": DEEP_EVENTS / _best(_deep_kernel),
        "qc.micro.evaluate_ns": _best(_evaluate) / CALL_OPS * 1e9,
        "shard.micro.owner_ns": _best(_ring_owner) / CALL_OPS * 1e9,
        "serve.micro.decode_ns": _best(_decode) / CALL_OPS * 1e9,
        "serve.micro.encode_ns": _best(_encode) / CALL_OPS * 1e9,
    }
    for depth, label in zip(QUEUE_DEPTHS, ("d100", "d10k", "d100k")):
        metrics[f"scheduling.micro.pushpop_ns_{label}"] = (
            _queue_at_depth(depth) / QUEUE_OPS * 1e9)

    generated = [_generate() for _ in range(ROUNDS)]
    metrics["workload.micro.generate_txns_per_s"] = (
        generated[0][1] / min(seconds for seconds, _ in generated))
    return metrics
