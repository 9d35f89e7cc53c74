"""End-to-end tests for the service HTTP surface and the urllib client
(repro.service.http / repro.service.client).

Each test runs a real :class:`ServiceHTTPServer` on an ephemeral port
(``port=0``) with inline evaluation (``processes=False``) and talks to
it through :class:`ServiceClient` — the same path as ``python -m repro
submit`` and the CI ``serve-smoke`` job.
"""

import json
import os
import socket
import threading
import urllib.error
import urllib.request

import pytest

import repro
from repro.core.store import DiskStore, MemoryStore
from repro.scenarios import Scenario, run_scenario
from repro.service import ServiceClient, ServiceError, serve

#: Cheap registered scenario used throughout (4 points).
SCENARIO = "fig7"


@pytest.fixture()
def server():
    instance = serve(store=MemoryStore(), port=0, n_workers=2,
                     processes=False)
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    instance._test_thread = thread
    try:
        yield instance
    finally:
        instance.stop()
        instance.server_close()


@pytest.fixture()
def client(server):
    return ServiceClient(server.url, timeout=30.0)


class TestEndpoints:
    def test_health_and_stats(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["version"] == repro.__version__
        stats = client.stats()
        assert stats["n_workers"] == 2
        assert stats["jobs"] == {"queued": 0, "running": 0, "done": 0,
                                 "failed": 0, "cancelled": 0}
        assert stats["store"]["backend"] == "memory"

    def test_submit_wait_result_roundtrip(self, client):
        job = client.submit(SCENARIO, seed=0)
        assert job["status"] in ("queued", "running", "done")
        done = client.wait(job["job_id"], timeout=120)
        assert done["computed"] == done["n_points"] == 4
        # The served payload is byte-identical to a local run.
        local = run_scenario(SCENARIO, rng=0).to_json().encode("utf-8")
        assert client.result_bytes(job["job_id"]) == local

    def test_warm_resubmission_all_hits_and_identical_bytes(self, client):
        cold = client.submit(SCENARIO, seed=0)
        client.wait(cold["job_id"], timeout=120)
        warm = client.submit(SCENARIO, seed=0)
        assert warm["status"] == "done"
        assert warm["hits"] == 4 and warm["computed"] == 0
        assert client.result_bytes(warm["job_id"]) \
            == client.result_bytes(cold["job_id"])
        assert client.stats()["hit_rate"] == 0.5

    def test_concurrent_identical_clients_coalesce(self, server):
        # Two clients race the same spec at the daemon: one computation,
        # two byte-identical results.
        first = ServiceClient(server.url, timeout=30.0)
        second = ServiceClient(server.url, timeout=30.0)
        jobs = [first.submit(SCENARIO, seed=3),
                second.submit(SCENARIO, seed=3)]
        first.wait(jobs[0]["job_id"], timeout=120)
        second.wait(jobs[1]["job_id"], timeout=120)
        payloads = [first.result_bytes(jobs[0]["job_id"]),
                    second.result_bytes(jobs[1]["job_id"])]
        assert payloads[0] == payloads[1]
        stats = first.stats()
        assert stats["points"]["computed"] == 4
        assert stats["points"]["coalesced"] \
            + stats["points"]["store_hits"] == 4

    def test_fetch_cached_point_by_store_key(self, client):
        job = client.submit(SCENARIO, seed=0)
        done = client.wait(job["job_id"], timeout=120)
        point = done["points"][0]
        assert client.fetch(point["store_key"]) == point["value"]

    def test_overrides_and_label_pass_through(self, client):
        job = client.submit("fig4", seed=1, label="tagged",
                            overrides={"channel.rx_noise_figure_db": 7.0})
        done = client.wait(job["job_id"], timeout=120)
        assert done["label"] == "tagged"
        assert done["scenario"] == "fig4"
        assert done["status"] == "done"


class TestErrors:
    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.status("job-999999")
        assert excinfo.value.status == 404

    def test_unknown_store_key_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.fetch("0" * 64)
        assert excinfo.value.status == 404

    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._json("GET", "/v2/nope")
        assert excinfo.value.status == 404

    def test_unknown_scenario_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit("not-a-scenario")
        assert excinfo.value.status == 400

    def test_unknown_payload_key_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._json("POST", "/v1/scenarios",
                         {"scenario": SCENARIO, "bogus": 1})
        assert excinfo.value.status == 400
        assert "unknown submission key" in str(excinfo.value)

    def test_invalid_json_body_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/v1/scenarios", data=b"{not json",
            method="POST", headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    @pytest.mark.parametrize("length, status, error", [
        (b"100000000000", 413, "exceeds the 1048576-byte limit"),
        (b"-1", 400, "invalid Content-Length '-1'"),
        (b"abc", 400, "invalid Content-Length 'abc'")])
    def test_unusable_body_length_is_refused_unread(self, server, client,
                                                    length, status, error):
        # A raw socket declares a 100 GB body (or a negative length, which
        # would read to end of stream, or no number at all), sends none of
        # it and keeps the connection open: the answer must come at once,
        # the connection must close (so no body byte is read as a next
        # request), and the server must stay up.
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"POST /v1/scenarios HTTP/1.1\r\n"
                         b"Host: localhost\r\n"
                         b"Content-Type: application/json\r\n"
                         b"Content-Length: " + length + b"\r\n\r\n")
            response = b""
            while chunk := sock.recv(65536):
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0].startswith(b"HTTP/1.1 %d " % status)
        assert error in json.loads(body)["error"]
        assert client.health()["status"] == "ok"

    def test_a_client_still_sending_an_oversized_body_reads_the_413(
            self, server, client):
        # urllib sends the whole 64 MiB body before it reads a reply; the
        # server answers at once and drains the body, so the client reads
        # the 413 rather than a broken pipe or a reset connection.
        request = urllib.request.Request(
            server.url + "/v1/scenarios", data=b" " * (64 << 20),
            method="POST", headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 413
        assert "exceeds the 1048576-byte limit" in json.loads(
            excinfo.value.read())["error"]
        assert client.health()["status"] == "ok"

    def test_result_of_running_job_is_409(self, server, client):
        gate = threading.Event()

        def _held(params, rng):
            gate.wait(timeout=30)
            return {"y": params["x"]}

        scenario = Scenario("held", "off-paper", "gated", specs={},
                            points=[{"x": 1}], worker=_held)
        job = server.service.submit_scenario(scenario)
        try:
            with pytest.raises(ServiceError) as excinfo:
                client.result_bytes(job["job_id"])
            assert excinfo.value.status == 409
        finally:
            gate.set()
        server.service.wait(job["job_id"], timeout=30)


class TestShutdown:
    def test_shutdown_endpoint_drains_then_stops_serving(self, server,
                                                         client):
        job = client.submit(SCENARIO, seed=0)
        client.wait(job["job_id"], timeout=120)
        assert client.shutdown() == {"status": "draining"}
        server._test_thread.join(timeout=30)
        assert not server._test_thread.is_alive()
        assert server.service.health()["accepting"] is False

    def test_disk_backed_serve_leaves_no_tmp_debris(self, tmp_path):
        store_dir = str(tmp_path / "store")
        instance = serve(store_dir=store_dir, port=0, n_workers=2,
                         processes=False)
        thread = threading.Thread(target=instance.serve_forever,
                                  daemon=True)
        thread.start()
        try:
            local = ServiceClient(instance.url, timeout=30.0)
            job = local.submit(SCENARIO, seed=0)
            local.wait(job["job_id"], timeout=120)
        finally:
            instance.stop()
            instance.server_close()
        debris = [os.path.join(parent, name)
                  for parent, _, names in os.walk(store_dir)
                  for name in names if name.endswith(".tmp")]
        assert debris == []
        # The store survives the daemon: a fresh handle serves the run.
        assert len(DiskStore(store_dir)) == 4
        payload = json.loads(
            run_scenario(SCENARIO, rng=0, store=DiskStore(store_dir))
            .to_json())
        assert payload["scenario"] == SCENARIO
