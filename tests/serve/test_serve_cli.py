"""Tests for the ``repro serve`` CLI."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.cli import build_parser, main
from repro.cli import _cmd_serve
from repro.fleet.cli import build_parser as build_fleet_parser
from repro.persistence import save_estimator
from repro.serve import ModelRegistry, ServeClient


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _wait_healthy(url: str, timeout: float = 10.0) -> ServeClient:
    client = ServeClient(url, timeout=5.0)
    deadline = time.monotonic() + timeout
    while True:
        try:
            client.healthz()
            return client
        except Exception:  # noqa: BLE001 — retried until the deadline
            if time.monotonic() > deadline:
                raise
            time.sleep(0.05)


@pytest.fixture(scope="module")
def artifact(tmp_path_factory, serve_estimator):
    path = tmp_path_factory.mktemp("serve-cli") / "model.npz"
    save_estimator(serve_estimator, path)
    return path


class TestServeCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve", "--artifact", "m.npz"])
        assert args.port == 8642
        assert args.cache_size == 1024
        assert args.version == "latest"

    @pytest.mark.parametrize("flag", [["--max-wait-ms", "1"],
                                      ["--max-batch-size", "8"]])
    @pytest.mark.parametrize("parser, command", [
        (build_parser, ["serve", "--artifact", "m.npz"]),
        (build_fleet_parser, ["fleet", "serve", "--registry", "r",
                              "--model", "m"])],
        ids=["serve", "fleet-serve"])
    def test_batcher_flags_are_usage_errors(self, parser, command, flag):
        # Batches form naturally; there is no window or cap to set.
        parser().parse_args(command)
        with pytest.raises(SystemExit) as excinfo:
            parser().parse_args(command + flag)
        assert excinfo.value.code == 2

    def _run_server(self, argv):
        args = build_parser().parse_args(argv)
        args.shutdown_event = threading.Event()
        result: dict = {}

        def target() -> None:
            result["code"] = _cmd_serve(args)

        thread = threading.Thread(target=target)
        thread.start()
        return args.shutdown_event, thread, result

    def test_serve_artifact_end_to_end(self, artifact, sqls_module):
        port = _free_port()
        stop, thread, result = self._run_server(
            ["serve", "--artifact", str(artifact), "--port", str(port)])
        try:
            client = _wait_healthy(f"http://127.0.0.1:{port}")
            response = client.estimate(sqls_module[0])
            assert response["estimate"] > 0
            assert client.estimate(sqls_module[0])["cached"] is True
        finally:
            stop.set()
            thread.join(timeout=30)
        assert result["code"] == 0
        assert not thread.is_alive()

    def test_serve_from_registry(self, tmp_path, serve_estimator,
                                 sqls_module):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(serve_estimator, "forest")
        port = _free_port()
        stop, thread, result = self._run_server(
            ["serve", "--registry", str(tmp_path / "registry"),
             "--artifact", "forest", "--port", str(port)])
        try:
            client = _wait_healthy(f"http://127.0.0.1:{port}")
            assert client.estimate(sqls_module[1])["estimate"] > 0
        finally:
            stop.set()
            thread.join(timeout=30)
        assert result["code"] == 0


@pytest.fixture(scope="module")
def sqls_module(conjunctive_workload):
    return [q.to_sql() for q in conjunctive_workload.queries[:8]]
