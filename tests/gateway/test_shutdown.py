"""Gateway shutdown leaves no connection handler behind.

A handler task still pending when the event loop closes is destroyed
half-run ("Task was destroyed but it is pending!").  These tests stop the
gateway while a connection sits idle on keep-alive, or while one is still
closing its socket, and record the loop's unfinished tasks at the moment
the loop closes.
"""

import asyncio
import threading
import time

from repro.gateway import GatewayConfig, OctopusAsyncGateway
from repro.server import OctopusClient

WIRE_TIMEOUT = 15.0

CHEAP_REQUEST = {"service": "stats"}


def start_recording_gateway(service):
    """Boot a gateway; return it with the list its loop's close fills
    with every task not yet done."""
    gateway = OctopusAsyncGateway(
        service, port=0, config=GatewayConfig(read_timeout=5.0, write_timeout=5.0)
    )
    gateway.start()
    loop = gateway._loop
    pending = []
    close = loop.close

    def recording_close():
        pending.extend(task for task in asyncio.all_tasks(loop) if not task.done())
        close()

    loop.close = recording_close
    return gateway, pending


class TestShutdownTasks:
    def test_idle_keep_alive_connection_leaves_no_pending_task(self, stub_service):
        gateway, pending = start_recording_gateway(stub_service)
        client = OctopusClient(gateway.url, timeout=WIRE_TIMEOUT)
        try:
            assert client.execute(CHEAP_REQUEST).ok  # connection now idles
            started = time.monotonic()
            gateway.shutdown_gracefully()
            assert time.monotonic() - started < WIRE_TIMEOUT
        finally:
            client.close()
        assert pending == []

    def test_connection_closing_at_shutdown_is_awaited(
        self, stub_service, monkeypatch
    ):
        """A handler that is still closing its socket when the drain runs
        is waited for, not left to be destroyed with the loop."""
        closing = threading.Event()
        wait_closed = asyncio.StreamWriter.wait_closed

        async def slow_wait_closed(writer):
            closing.set()
            await asyncio.sleep(0.5)
            await wait_closed(writer)

        monkeypatch.setattr(asyncio.StreamWriter, "wait_closed", slow_wait_closed)
        gateway, pending = start_recording_gateway(stub_service)
        client = OctopusClient(gateway.url, timeout=WIRE_TIMEOUT)
        assert client.execute(CHEAP_REQUEST).ok
        client.close()  # the handler sees EOF and starts closing
        assert closing.wait(timeout=WIRE_TIMEOUT)
        gateway.shutdown_gracefully()
        assert pending == []
