"""Self-tests of the benchmark's open-loop generator.

Run from the checkout root:  python3 -m pytest perfbench/tests -q
"""

import asyncio
import json
import math

import numpy as np
import pytest

from repro.service.protocol import encode_frame, read_frame

from openloop import (
    OpenLoopClient, PhaseResult, Request, poisson_arrivals, ramp_arrivals,
    sustained_rate,
)


def test_schedules_are_deterministic_per_seed():
    a = poisson_arrivals(500.0, 2000, seed=7)
    assert np.array_equal(a, poisson_arrivals(500.0, 2000, seed=7))
    assert not np.array_equal(a, poisson_arrivals(500.0, 2000, seed=8))
    assert np.all(np.diff(a) > 0)
    assert a[-1] == pytest.approx(4.0, rel=0.1)  # 2000 arrivals at 500/s

    r = ramp_arrivals(100.0, 1600.0, 8.0, seed=3)
    assert np.array_equal(r, ramp_arrivals(100.0, 1600.0, 8.0, seed=3))
    assert np.all(np.diff(r) > 0) and r[-1] < 8.0
    # the offered rate climbs: the last second holds far more arrivals
    # than the first
    assert np.sum(r > 7.0) > 8 * np.sum(r < 1.0)


async def _serve(handler):
    server = await asyncio.start_server(handler, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


async def _drive(handler, requests, **kwargs):
    server, port = await _serve(handler)
    try:
        client = await OpenLoopClient.connect("127.0.0.1", port)
        try:
            return await client.run(requests, **kwargs)
        finally:
            await client.close()
    finally:
        server.close()
        await server.wait_closed()


def _requests(count, spacing=0.01, expect=None):
    return [Request(i * spacing, "write", "insert", {"point": [0.5, 0.5]},
                    expect=expect) for i in range(count)]


def test_a_stall_is_charged_to_the_requests_queued_behind_it():
    stall_at, stall_s = 5, 0.3

    async def handler(reader, writer):
        seen = 0
        while True:
            request = await read_frame(reader)
            if request is None:
                break
            if seen == stall_at:
                await asyncio.sleep(stall_s)  # the server stops answering
            seen += 1
            writer.write(encode_frame(
                {"id": request["id"], "ok": True, "result": True}))
            await writer.drain()
        writer.close()

    requests = _requests(30)
    result = asyncio.run(_drive(handler, requests))
    assert result.failed == 0 and result.attempted == 30
    # the generator kept sending on schedule during the stall ...
    assert max(result.send_lags) < 0.05
    # ... so every request due during the stall waited for its end,
    # timed from when it was due, not from when the server read it
    latency = dict(result.samples)
    stall_end = requests[stall_at].due + stall_s
    queued = [r for r in requests[stall_at:] if r.due < stall_end]
    assert len(queued) >= 25
    for r in queued:
        assert latency[r.due] >= stall_end - r.due - 0.005


def test_failed_and_refused_requests_count_and_miss_the_limit():
    async def handler(reader, writer):
        seen = 0
        while True:
            request = await read_frame(reader)
            if request is None:
                break
            seen += 1
            if seen > 20:  # then the server hangs up on the client
                break
            if seen % 4 == 0:
                reply = {"id": request["id"], "ok": False, "error": "no"}
            else:
                reply = {"id": request["id"], "ok": True, "result": True}
            writer.write(encode_frame(reply))
            await writer.drain()
        writer.close()

    result = asyncio.run(_drive(handler, _requests(40, expect=True),
                                drain_timeout=1.0))
    assert result.attempted == 40
    # 5 refusals among the first 20, then 20 never answered
    assert result.failed == 25
    failed = [v for v in result.all_latencies() if math.isinf(v)]
    assert len(failed) == 25

    # in a capacity ramp, a slice with failures beyond its quantile
    # misses the limit however fast the other answers were
    ramp = PhaseResult()
    for i in range(100):
        due = i * 0.02  # two one-second slices
        slow = i >= 50 and i % 8 == 0  # 14% of the second slice fail
        ramp.samples.append((due, math.inf if slow else 0.001))
        ramp.lags.append((due, 0.0))
    rate, log = sustained_rate(ramp, 100.0, 400.0, 2.0, 2, 0.05, 0.9)
    assert [b.ok for b in log] == [True, False]
    assert rate == pytest.approx(200.0)


def test_a_wrong_answer_is_a_failure():
    async def handler(reader, writer):
        while True:
            request = await read_frame(reader)
            if request is None:
                break
            # claims the fresh point was already there
            writer.write(encode_frame(
                {"id": request["id"], "ok": True, "result": False}))
            await writer.drain()
        writer.close()

    result = asyncio.run(_drive(handler, _requests(5, expect=True)))
    assert result.failed == 5


def test_answers_are_summarized_like_a_full_decode():
    from openloop import summarize

    for message in (
        {"id": 3, "ok": True, "result": True},
        {"id": 4, "ok": True, "result": False},
        {"id": 5, "ok": True, "result": [[0.25, 0.5], [0.75, 0.125]]},
        {"id": 6, "ok": False, "error": "point outside bounds"},
    ):
        payload = encode_frame(message)[4:]
        rid, ok, result = summarize(payload)
        decoded = json.loads(payload)
        assert rid == decoded["id"] and ok == decoded["ok"]
        expected = decoded.get("result")
        assert result == (expected if isinstance(expected, bool) else None)
