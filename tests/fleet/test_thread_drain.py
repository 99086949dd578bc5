"""Every daemon thread the serving stack starts is joined on shutdown.

The batcher worker, the HTTP accept loop, a process worker's event
reader and the supervisor's monitor are daemon threads only as a crash
backstop: their owners' shutdown paths must join them, or interpreter
exit kills them mid-batch.  Each test records the daemon threads an
owner started and asserts that none outlives its shutdown call.
"""

import threading
import time

from repro.fleet.workers import LocalWorker, ProcessWorker, WorkerSupervisor
from repro.serve import EstimationServer, MicroBatcher, ServeClient

from .conftest import make_service


def daemons_started_since(before: set) -> list[threading.Thread]:
    return [thread for thread in threading.enumerate()
            if thread.daemon and thread not in before]


def survivors(threads: list[threading.Thread]) -> list[str]:
    return [thread.name for thread in threads if thread.is_alive()]


def test_batcher_close_joins_its_worker():
    def slow_batch(items):
        time.sleep(0.2)  # still executing when close() is called
        return [1.0] * len(items)

    before = set(threading.enumerate())
    batcher = MicroBatcher(slow_batch, max_batch_size=1, max_wait_ms=0)
    threads = daemons_started_since(before)
    assert threads
    future = batcher.submit("q")
    batcher.close()
    assert survivors(threads) == []
    assert future.result(timeout=0) == 1.0  # drained, not dropped


def test_server_stop_joins_every_daemon_thread(fleet_estimator,
                                               fleet_sqls):
    before = set(threading.enumerate())
    server = EstimationServer(make_service(fleet_estimator)).start()
    with ServeClient(server.url) as client:
        assert client.estimate(fleet_sqls[0])["estimate"] > 0
    threads = daemons_started_since(before)
    assert threads
    server.stop(drain=True)
    assert survivors(threads) == []


def test_supervisor_stop_joins_monitor_and_workers(fleet_estimator):
    def factory(worker_id: str) -> LocalWorker:
        return LocalWorker(worker_id, make_service(fleet_estimator)).start()

    before = set(threading.enumerate())
    supervisor = WorkerSupervisor(factory, poll_interval=0.02)
    supervisor.spawn(2)
    # spawn() joined the threads that started the workers concurrently.
    assert not [thread.name for thread in threading.enumerate()
                if thread.name.startswith("repro-fleet-start")]
    supervisor.start()
    threads = daemons_started_since(before)
    assert any(thread.name == "repro-fleet-supervisor" for thread in threads)
    supervisor.stop(drain=True)
    assert survivors(threads) == []


def test_process_worker_drain_joins_its_reader(tmp_path, fleet_estimator):
    from repro.serve import ModelRegistry

    registry = ModelRegistry(tmp_path / "registry")
    registry.publish(fleet_estimator, "proc")
    before = set(threading.enumerate())
    worker = ProcessWorker("p0", registry.root, "proc",
                           start_timeout=120.0).start()
    try:
        threads = daemons_started_since(before)
        assert threads
    finally:
        worker.drain()
    assert survivors(threads) == []
