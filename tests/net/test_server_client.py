"""End-to-end socket server + client library behavior.

A real :class:`ServiceStack` behind a real Unix-domain socket
(:class:`ThreadedLockServer` over :class:`ServiceBackend`), driven by
the routed client with one endpoint -- the shape every worker of the
pool serves: session lifecycle and recycling, pipelined requests, error
classes crossing the wire, disconnect cleanup, reconnect after a server
restart, and the oversized-frame teardown.
"""

import socket
import struct
import threading
import time

import pytest

from repro.lockmgr.manager import LockTimeoutError
from repro.lockmgr.modes import LockMode
from repro.net import protocol as wire
from repro.net.client import (
    ConnectionLostError,
    RoutedClientStack,
    RoutedLockClient,
)
from repro.net.server import ServiceBackend, ThreadedLockServer
from repro.service.stack import ServiceConfig, ServiceStack


def small_config() -> ServiceConfig:
    return ServiceConfig(
        total_memory_pages=8192,
        initial_locklist_pages=128,
        tuner_interval_s=0.05,
        max_in_flight=16,
        admission_queue_depth=64,
    )


def start_server(stack, sock_path: str) -> ThreadedLockServer:
    server = ThreadedLockServer(ServiceBackend(stack.service), path=sock_path)
    server.start()
    return server


@pytest.fixture()
def stack():
    with ServiceStack(small_config()) as service_stack:
        yield service_stack


@pytest.fixture()
def server(stack, tmp_path):
    srv = start_server(stack, str(tmp_path / "svc.sock"))
    yield srv
    srv.stop()


@pytest.fixture()
def client(server):
    with RoutedLockClient([server.address], pool_size=2) as lock_client:
        yield lock_client


def wait_until(predicate, timeout_s: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestRoundTrips:
    def test_ping_and_stats(self, client):
        client.ping()
        [payload] = client.stats()
        assert payload["sessions"] == 0
        assert "service" in payload and "manager" in payload

    def test_lock_rows_and_rollback(self, client):
        app = client.open_session()
        client.lock_row(app, 1, 1, LockMode.X)
        client.lock_row(app, 1, 2, LockMode.S, timeout_s=1.0)
        granted = client.lock_rows(
            app, [(2, 1, LockMode.X), (2, 2, LockMode.X)]
        )
        assert granted == 2
        assert client.rollback(app) > 0
        assert client.close_session(app) == 0

    def test_unlock_read_over_the_wire(self, client):
        app = client.open_session()
        client.lock_row(app, 3, 9, LockMode.S)
        assert client.release_read_lock(app, 3, 9) is True
        assert client.release_read_lock(app, 3, 9) is False
        client.close_session(app)

    def test_lock_table(self, client):
        app = client.open_session()
        client.lock_table(app, 5, LockMode.IX)
        client.close_session(app)

    def test_unknown_app_is_a_service_error(self, client):
        # Refused client-side for an app this client never opened ...
        with pytest.raises(wire.ServiceError):
            client.lock_row(999_999, 1, 1, LockMode.X)
        # ... and server-side when the frame reaches the service anyway.
        mode = wire.wire_mode(LockMode.X)
        with pytest.raises(wire.ServiceError):
            client._conn(0).request(
                lambda rid: wire.pack_lock_row_frame(
                    rid, 999_999, 1, 1, mode, None
                ),
                raw=True,
            )

    def test_request_of_a_waiting_app_is_refused(self, client, stack):
        # The inline fast path must not grant a second request to an
        # app whose first one is parked on the executor.
        holder = client.open_session()
        waiter = client.open_session()
        client.lock_row(holder, 7, 7, LockMode.X)
        errors = []

        def wait() -> None:
            try:
                client.lock_row(waiter, 7, 7, LockMode.X, timeout_s=5.0)
            except Exception as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        thread = threading.Thread(target=wait)
        thread.start()
        assert wait_until(lambda: waiter in stack.service.waiting_sessions())
        with pytest.raises(wire.ServiceError, match="in flight"):
            client.lock_row(waiter, 8, 8, LockMode.X)
        client.close_session(holder)
        thread.join(timeout=5.0)
        assert errors == []
        client.close_session(waiter)

    def test_timeout_error_class_crosses_the_wire(self, client):
        holder = client.open_session()
        waiter = client.open_session()
        client.lock_row(holder, 7, 7, LockMode.X)
        with pytest.raises(LockTimeoutError):
            client.lock_row(waiter, 7, 7, LockMode.X, timeout_s=0.05)
        client.close_session(holder)
        client.close_session(waiter)


class TestSessionLifecycle:
    def test_scope_recycles_the_session(self, server):
        with RoutedLockClient([server.address], pool_size=1) as lock_client:
            with lock_client.session() as first:
                lock_client.lock_row(first, 1, 1, LockMode.X)
            with lock_client.session() as second:
                lock_client.lock_row(second, 1, 1, LockMode.X)
            # Scope exit released the locks (fire-and-forget
            # release_all is ordered by the stream) and parked the
            # session for the second scope to take.
            assert second == first
            assert lock_client.session_count == 1

    def test_close_session_releases_locks_serverside(self, client, stack):
        app = client.open_session()
        client.lock_row(app, 1, 1, LockMode.X)
        assert stack.service.session_count() == 1
        client.close_session(app)
        assert stack.service.session_count() == 0
        assert stack.chain.used_slots == 0

    def test_disconnect_force_closes_sessions(self, server, stack):
        lock_client = RoutedLockClient([server.address], pool_size=1)
        app = lock_client.open_session()
        lock_client.lock_row(app, 1, 1, LockMode.X)
        assert stack.service.session_count() == 1
        lock_client.close()
        # The server's reader notices the dead socket and cleans up.
        assert wait_until(lambda: stack.service.session_count() == 0)
        assert wait_until(lambda: stack.chain.used_slots == 0)


class TestPipelining:
    def test_concurrent_threads_on_a_small_pool(self, server):
        with RoutedLockClient([server.address], pool_size=1) as lock_client:
            errors = []

            def worker(i: int) -> None:
                try:
                    for j in range(50):
                        with lock_client.session() as app:
                            lock_client.lock_row(
                                app, i, j, LockMode.X, timeout_s=5.0
                            )
                except Exception as exc:  # noqa: BLE001 - collected
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert errors == []


class TestReconnect:
    def test_client_survives_server_restart(self, stack, tmp_path):
        sock_path = str(tmp_path / "svc.sock")
        first = start_server(stack, sock_path)
        lock_client = RoutedLockClient([first.address], pool_size=1)
        try:
            app = lock_client.open_session()
            lock_client.lock_row(app, 1, 1, LockMode.X)
            first.stop()
            # In-flight state is gone: the session died with its socket.
            with pytest.raises((ConnectionLostError, wire.ServiceError)):
                lock_client.lock_row(app, 1, 2, LockMode.X)
            second = start_server(stack, sock_path)
            try:
                # Next use reconnects transparently; new scopes work.
                # (The old session's server-side state survives a
                # front-end restart -- only a client *disconnect*
                # force-closes it -- so lock fresh rows here.)
                assert wait_until(lambda: _can_ping(lock_client))
                with lock_client.session() as fresh:
                    lock_client.lock_row(fresh, 2, 2, LockMode.X)
                assert lock_client.reconnects >= 1
            finally:
                second.stop()
        finally:
            lock_client.close()


def _can_ping(lock_client: RoutedLockClient) -> bool:
    try:
        lock_client.ping()
        return True
    except (ConnectionLostError, OSError):
        return False


class TestFraming:
    def test_oversized_frame_tears_the_connection_down(self, server):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(5.0)
            sock.connect(server.path)
            sock.sendall(struct.pack("!I", wire.MAX_FRAME_BYTES + 1))
            # The server answers with one ProtocolError frame, then
            # closes the connection -- it never buffers the body.
            data = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                data += chunk
            frames = list(wire.iter_frames(data))
            assert len(frames) == 1
            resp = wire.decode_response(frames[0])
            assert not resp.ok
            assert wire.ERROR_CODES[resp.error_code] is wire.ProtocolError

        # And the server still serves new connections afterwards.
        with RoutedLockClient([server.address]) as lock_client:
            lock_client.ping()

    def test_no_reply_ordering(self, server, stack):
        # A fire-and-forget release_all is ordered before the next
        # request on the same stream: the lock must be free by the
        # time a second session asks for it.
        with RoutedLockClient([server.address], pool_size=1) as lock_client:
            app = lock_client.open_session()
            lock_client.lock_row(app, 1, 1, LockMode.X)
            [conn] = lock_client._rec(app).conns.values()
            conn.send_only(wire.encode_release_all(0, app, no_reply=True))
            other = lock_client.open_session()
            lock_client.lock_row(other, 1, 1, LockMode.X, timeout_s=0.5)


class TestUnixDomain:
    def test_uds_roundtrip(self, server):
        assert server.address == (f"unix:{server.path}", 0)
        with RoutedClientStack([server.address], pool_size=1) as net:
            with net.service.session() as app:
                net.service.lock_row(app, 1, 1, LockMode.X)
            net.service.ping()

    def test_endpoints_must_be_unix_domain(self):
        with pytest.raises(ValueError):
            RoutedLockClient([("127.0.0.1", 9000)])
