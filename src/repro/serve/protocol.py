"""JSON-lines wire protocol + the TCP front for the QC gateway.

One request per line, one reply per line, plain JSON — trivially
debuggable with ``nc localhost 8642``:

.. code-block:: json

    {"op": "query", "id": 7, "items": ["S0012"], "exec_ms": 3.2,
     "qc": {"shape": "step", "qos_max": 30.0, "rt_max": 75.0,
            "qod_max": 20.0, "uu_max": 1.0, "lifetime_ms": 5000.0}}
    {"op": "update", "id": 8, "item": "S0012", "value": 101.5,
     "exec_ms": 1.0}

Replies echo the client's ``id`` and carry the terminal
:class:`~repro.serve.gateway.GatewayReply` fields (``outcome``,
``rt_ms``, ``qos``, ``qod``, ``staleness``, ``degraded``,
``retry_after_ms``).  Backpressure and shedding are *replies*, not
dropped connections — explicit signaling is what lets the client's
retry budget make an informed decision.
"""

from __future__ import annotations

import asyncio
import collections.abc
import json
import typing

from repro.qc.contracts import QualityContract

from .gateway import GatewayReply, QCGateway

#: QC shapes expressible on the wire.
_QC_SHAPES = ("step", "linear")
_INF = float("inf")


class ProtocolError(ValueError):
    """A malformed request line (the reply carries the message)."""


# ----------------------------------------------------------------------
# Numbers on the wire
# ----------------------------------------------------------------------
# Python's ``json`` parses ``NaN`` and ``Infinity``, and the objects
# behind the gateway either refuse such a number with a bare
# ``ValueError`` (``Transaction``) or take it silently (a contract whose
# ``rt_max`` is NaN never pays, yet its maximum enters the ledger, and
# a NaN priority breaks the queue's order).  Every number is therefore
# checked here, where outside input enters.  (A chained comparison is
# False for NaN, so each test below refuses it too.)
def _finite(name: str, raw: typing.Any) -> float:
    number = float(raw)
    if not -_INF < number < _INF:
        raise ProtocolError(f"{name} must be finite, got {number}")
    return number


def _non_negative(name: str, raw: typing.Any) -> float:
    number = float(raw)
    if not 0.0 <= number < _INF:
        raise ProtocolError(f"{name} must be finite and >= 0, got {number}")
    return number


def _positive(name: str, raw: typing.Any) -> float:
    number = float(raw)
    if not 0.0 < number < _INF:
        raise ProtocolError(f"{name} must be finite and > 0, got {number}")
    return number


# ----------------------------------------------------------------------
# Quality contracts on the wire
# ----------------------------------------------------------------------
def qc_to_wire(qc: QualityContract, shape: str = "step",
               ) -> dict[str, typing.Any]:
    """Flatten a contract to its wire dict (step/linear shapes only)."""
    if shape not in _QC_SHAPES:
        raise ValueError(f"unknown QC shape {shape!r}")
    return {"shape": shape, "qos_max": qc.qos_max, "rt_max": qc.rt_max,
            "qod_max": qc.qod_max, "uu_max": qc.uu_max,
            "lifetime_ms": qc.lifetime}


def qc_from_wire(wire: typing.Mapping[str, typing.Any]) -> QualityContract:
    """Rebuild a contract from its wire dict."""
    if not isinstance(wire, collections.abc.Mapping):
        raise ProtocolError("a QC must be an object")
    shape = wire.get("shape", "step")
    if shape not in _QC_SHAPES:
        raise ProtocolError(f"unknown QC shape {shape!r}")
    builder = (QualityContract.step if shape == "step"
               else QualityContract.linear)
    try:
        return builder(
            _non_negative("qos_max", wire["qos_max"]),
            _non_negative("rt_max", wire["rt_max"]),
            _non_negative("qod_max", wire["qod_max"]),
            _non_negative("uu_max", wire["uu_max"]),
            lifetime=_positive("lifetime_ms",
                               wire.get("lifetime_ms", 150_000.0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad QC on the wire: {exc}") from exc


# ----------------------------------------------------------------------
# Requests and replies
# ----------------------------------------------------------------------
def encode_reply(request_id: typing.Any, reply: GatewayReply) -> bytes:
    payload = {
        "id": request_id,
        "outcome": reply.outcome,
        "rt_ms": reply.response_time_ms,
        "qos": reply.qos_profit,
        "qod": reply.qod_profit,
        "staleness": reply.staleness,
        "degraded": reply.degraded,
        "values": reply.values,
        "retry_after_ms": reply.retry_after_ms,
    }
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def encode_error(request_id: typing.Any, message: str) -> bytes:
    payload = {"id": request_id, "outcome": "error", "error": message}
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def decode_request(line: bytes) -> dict[str, typing.Any]:
    try:
        request = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"not JSON: {exc}") from exc
    if not isinstance(request, dict) or "op" not in request:
        raise ProtocolError("a request must be an object with an 'op'")
    return typing.cast(dict[str, typing.Any], request)


def submit_from_wire(gateway: QCGateway,
                     request: typing.Mapping[str, typing.Any],
                     ) -> "asyncio.Future[GatewayReply]":
    """Dispatch one decoded request into the gateway."""
    op = request["op"]
    if op == "query":
        try:
            items = [str(item) for item in request["items"]]
            if not items:
                raise ProtocolError("items must name at least one item")
            exec_ms = _positive("exec_ms", request.get("exec_ms", 5.0))
            qc = qc_from_wire(request.get("qc", {}))
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"bad query: {exc}") from exc
        return gateway.submit_query(items, qc, exec_ms)
    if op == "update":
        try:
            item = str(request["item"])
            value = _finite("value", request.get("value", 0.0))
            exec_ms = _positive("exec_ms", request.get("exec_ms", 2.0))
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"bad update: {exc}") from exc
        return gateway.submit_update(item, value, exec_ms)
    raise ProtocolError(f"unknown op {op!r}")


# ----------------------------------------------------------------------
# The TCP front
# ----------------------------------------------------------------------
async def _handle_connection(gateway: QCGateway,
                             reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
    """One client connection: requests in, replies out, in any order.

    Replies are written as each request *resolves* (a completed query
    may overtake a backlogged one), which is why every reply echoes the
    request ``id``.
    """
    replies: set[asyncio.Task[None]] = set()

    async def _answer(request_id: typing.Any,
                      future: "asyncio.Future[GatewayReply]") -> None:
        reply = await future
        writer.write(encode_reply(request_id, reply))

    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            if not line.strip():
                continue
            request_id: typing.Any = None
            try:
                request = decode_request(line)
                request_id = request.get("id")
                future = submit_from_wire(gateway, request)
            except ProtocolError as exc:
                writer.write(encode_error(request_id, str(exc)))
                continue
            task = asyncio.get_running_loop().create_task(
                _answer(request_id, future))
            replies.add(task)
            task.add_done_callback(replies.discard)
        if replies:
            await asyncio.gather(*replies, return_exceptions=True)
        await writer.drain()
    finally:
        # Host-side teardown: cancellation order carries no state.
        for task in replies:  # repro: lint-ignore[no-set-iteration]
            task.cancel()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown
            pass


async def serve_tcp(gateway: QCGateway, host: str = "127.0.0.1",
                    port: int = 8642) -> "asyncio.base_events.Server":
    """Start the JSON-lines TCP front on a running gateway.

    With ``port=0`` the OS picks a free port (tests use this); the
    bound address is on ``server.sockets[0].getsockname()``.
    """

    async def handler(reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        await _handle_connection(gateway, reader, writer)

    return await asyncio.start_server(handler, host, port)
