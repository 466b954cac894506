"""Tests for the ``repro serve`` JSON-RPC endpoint and scripted mode."""

import io
import json

import pytest

from repro.serve import ServeServer, serve_loop, spec_from_params
from repro.analysis import SpecError


def _call(server, method, params=None, request_id=1):
    line = json.dumps({"id": request_id, "method": method, "params": params or {}})
    return server.handle_line(line)


def _open_params(**overrides):
    params = {
        "firmware": "forwarder", "rpus": 4, "size": 512, "gbps": 40,
        "warmup": 200, "packets": 800,
    }
    params.update(overrides)
    return params


class TestSpecFromParams:
    def test_defaults(self):
        spec = spec_from_params({})
        assert spec.config.n_rpus == 16
        assert spec.traffic.packet_size == 512
        assert spec.window.measure_packets == 3000

    def test_firewall_bundle(self):
        spec = spec_from_params({"firmware": "firewall", "rules": 16})
        assert spec.include_absorbed
        assert not spec.traffic.respect_generator_cap

    def test_pigasus_bundle(self):
        spec = spec_from_params({"firmware": "pigasus_hw", "rules": 4})
        assert spec.traffic.source == "flows"
        assert spec.config.slots_per_rpu == 32
        assert dict(spec.traffic.source_kwargs)["n_flows"] == 2048

    def test_unknown_param_rejected(self):
        with pytest.raises(SpecError):
            spec_from_params({"bogus": 1})

    def test_unknown_firmware_rejected(self):
        with pytest.raises(SpecError):
            spec_from_params({"firmware": "quantum"})


class TestServeServer:
    def test_open_rejects_removed_replay_cache_param_by_name(self):
        reply = _call(ServeServer(), "open", _open_params(replay_cache=False))
        assert not reply["ok"]
        assert reply["error"]["type"] == "SpecError"
        assert "unknown open parameters: ['replay_cache']" in reply["error"]["message"]

    def test_ping(self):
        reply = _call(ServeServer(), "ping")
        assert reply == {
            "schema": "repro-serve/1", "id": 1, "ok": True,
            "result": {"pong": True},
        }

    def test_comment_and_blank_lines_skipped(self):
        server = ServeServer()
        assert server.handle_line("# a comment\n") is None
        assert server.handle_line("   \n") is None
        assert server.errors == 0

    def test_unknown_method_is_error_reply(self):
        reply = _call(ServeServer(), "frobnicate")
        assert not reply["ok"]
        assert "unknown method" in reply["error"]["message"]

    def test_malformed_json_is_error_reply(self):
        server = ServeServer()
        reply = server.handle_line("{nope\n")
        assert not reply["ok"]
        assert server.errors == 1

    def test_step_before_open_is_error(self):
        reply = _call(ServeServer(), "step", {"n_events": 10})
        assert not reply["ok"]
        assert "no open session" in reply["error"]["message"]

    def test_double_open_rejected(self):
        server = ServeServer()
        assert _call(server, "open", _open_params())["ok"]
        reply = _call(server, "open", _open_params(), request_id=2)
        assert not reply["ok"]
        assert "already open" in reply["error"]["message"]

    def test_open_step_snapshot_run_result_close(self):
        server = ServeServer()
        opened = _call(server, "open", _open_params())
        assert opened["ok"] and opened["result"]["spec_key"]

        stepped = _call(server, "step", {"n_events": 500}, request_id=2)
        assert stepped["ok"] and stepped["result"]["events"] == 500

        snap = _call(server, "snapshot", request_id=3)
        assert snap["ok"] and snap["result"]["schema"] == "repro-snapshot/2"

        ran = _call(server, "run", request_id=4)
        assert ran["ok"] and ran["result"]["done"]
        assert ran["result"]["result"]["schema"] == "repro-result/1"

        result = _call(server, "result", request_id=5)
        assert result["ok"]
        assert result["result"] == ran["result"]["result"]

        closed = _call(server, "close", request_id=6)
        assert closed["ok"] and closed["result"]["closed"]
        assert server.errors == 0

    def test_step_with_both_bounds_honours_the_event_budget(self):
        server = ServeServer()
        _call(server, "open", _open_params())
        stepped = _call(server, "step", {"n_events": 5, "until_ts": 2000})
        assert stepped["result"]["events"] == 5
        assert stepped["result"]["now"] < 2000
        snap = _call(server, "snapshot")
        assert snap["result"]["events_processed"] == 5

    def test_inject_synthetic_burst(self):
        server = ServeServer()
        _call(server, "open", _open_params())
        reply = _call(server, "inject", {"count": 16, "size": 256, "port": 0})
        assert reply["ok"] and reply["result"]["injected"] == 16

    def test_control_reconfigure_recovery_visible(self):
        """The acceptance scenario in miniature: hot reconfig under
        traffic, recovery visible in the next snapshot."""
        server = ServeServer()
        _call(server, "open", _open_params())
        _call(server, "step", {"n_events": 1000})
        ctl = _call(
            server, "control",
            {"action": "reconfigure", "rpu": 1, "pr_load_ms": 0.05},
        )
        assert ctl["ok"]
        _call(server, "step", {"cycles": 60_000})
        snap = _call(server, "snapshot")
        [record] = snap["result"]["reconfig"]
        assert record["rpu"] == 1 and record["booted_at"] > 0


class TestServeLoop:
    def test_loop_replies_per_request(self):
        requests = "\n".join([
            "# annotated scenario",
            json.dumps({"id": 1, "method": "ping"}),
            json.dumps({"id": 2, "method": "open", "params": _open_params()}),
            json.dumps({"id": 3, "method": "run"}),
            json.dumps({"id": 4, "method": "close"}),
        ]) + "\n"
        out = io.StringIO()
        status = serve_loop(io.StringIO(requests), out, check=True)
        assert status == 0
        replies = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [r["id"] for r in replies] == [1, 2, 3, 4]
        assert all(r["ok"] for r in replies)
        assert all(r["schema"] == "repro-serve/1" for r in replies)

    def test_check_mode_flags_errors(self):
        requests = json.dumps({"id": 1, "method": "result"}) + "\n"
        out = io.StringIO()
        assert serve_loop(io.StringIO(requests), out, check=True) == 1
        assert serve_loop(io.StringIO(requests), io.StringIO(), check=False) == 0

    def test_bundled_scenario_passes(self):
        """The repo's example scenario is the CI smoke contract."""
        out = io.StringIO()
        with open("examples/serve_session.jsonl") as fh:
            assert serve_loop(fh, out, check=True) == 0
        replies = [json.loads(line) for line in out.getvalue().splitlines()]
        assert all(r["ok"] for r in replies)
        snapshots = [
            r["result"] for r in replies
            if isinstance(r["result"], dict) and r["result"].get("schema") == "repro-snapshot/2"
        ]
        # the scenario's contract: reconfig recovery and watchdog MTTR
        # become visible in the telemetry stream
        assert any(
            rec["booted_at"] > 0 for s in snapshots for rec in s["reconfig"]
        )
        assert any(
            w["mttr_cycles"] for s in snapshots for w in s["watchdog"]
        )
