import json
import threading
import urllib.error
import urllib.request
from http.client import HTTPConnection
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from omninav.mockdev import ROBOT, TELEVISION, MockConfig, MockDeviceServer
from omninav.tour import (
    Action,
    DeviceEndpoint,
    DeviceError,
    Event,
    Phase,
    TourConfig,
    TourRunner,
    TourState,
    connectivity_check,
    device_command,
    tour_step,
)

from conftest import stop_all

GOLDEN_TRANSITIONS = """* IDLE_AT_ENTRY
button(start) -> CONNECTIVITY_CHECK
connectivity_ok -> NAV_TO_HARVEY
nav_done -> HARVEY_VIDEO
video_done -> HARVEY_DEMO
demo_done -> WAIT_NEXT_1
button(next) -> NAV_TO_CARTMAN
nav_done -> CARTMAN_VIDEO
video_done -> CARTMAN_PICKING
finish -> NAV_TO_MEETING
nav_done -> DONE
"""


def make_mocks(**overrides):
    specs = {
        "tv_harvey": MockConfig("tv_harvey", TELEVISION, media=["harvey_field_video"]),
        "harvey": MockConfig("harvey", ROBOT, demos=["pick_sweet_pepper"]),
        "tv_cartman": MockConfig("tv_cartman", TELEVISION, media=["cartman_challenge_video"]),
        "cartman": MockConfig("cartman", ROBOT),
    }
    specs.update(overrides)
    shared = []
    mocks = {name: MockDeviceServer(cfg, shared).start() for name, cfg in specs.items()}
    devices = [DeviceEndpoint(m.config.name, m.base_url, m.config.kind) for m in mocks.values()]
    return mocks, devices, shared


def http(url, json_body=None, data=None):
    """(status, body) of one raw request: a POST when a body is given."""
    if json_body is not None:
        data = json.dumps(json_body).encode()
    headers = {} if data is None else {"Content-Type": "application/json"}
    try:
        with urllib.request.urlopen(urllib.request.Request(url, data, headers), timeout=2) as r:
            return r.status, r.read()
    except urllib.error.HTTPError as e:
        with e:
            return e.code, e.read()


class CountingServer:
    """Answers every request with one fixed status and counts the requests."""

    def __init__(self, status):
        self.requests = 0
        counter = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_POST(self):
                counter.requests += 1
                self.rfile.read(int(self.headers.get("Content-Length") or 0))
                self.send_response(status)
                self.send_header("Content-Length", "0")
                self.end_headers()

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=self._server.serve_forever, kwargs={"poll_interval": 0.05},
                         daemon=True).start()
        self.endpoint = DeviceEndpoint("dev", f"http://127.0.0.1:{self._server.server_address[1]}",
                                       "robot")

    def close(self):
        self._server.shutdown()
        self._server.server_close()


class TestStateMachine:
    def _walk(self, pairs):
        state = TourState()
        cfg = TourConfig()
        out = []
        for event in pairs:
            state, actions = tour_step(state, event, cfg)
            out.append((state.phase, actions))
        return state, out

    def test_happy_path_phases_and_actions(self):
        events = [
            Event("button", "start"), Event("connectivity_ok"), Event("nav_done"),
            Event("video_done"), Event("demo_done"), Event("button", "next"),
            Event("nav_done"), Event("video_done"), Event("item_selected", "a"),
            Event("finish"), Event("nav_done"),
        ]
        state, steps = self._walk(events)
        phases = [p for p, _ in steps]
        assert phases == [
            Phase.CONNECTIVITY_CHECK, Phase.NAV_TO_HARVEY, Phase.HARVEY_VIDEO,
            Phase.HARVEY_DEMO, Phase.WAIT_NEXT_1, Phase.NAV_TO_CARTMAN,
            Phase.CARTMAN_VIDEO, Phase.CARTMAN_PICKING, Phase.CARTMAN_PICKING,
            Phase.NAV_TO_MEETING, Phase.DONE,
        ]
        assert steps[0][1] == [Action("check_connectivity")]
        assert steps[2][1] == [Action("device", "tv_harvey", "play", "harvey_field_video")]
        assert steps[3][1] == [Action("device", "harvey", "start_demo", "pick_sweet_pepper")]
        # video_done at cartman starts picking with no device command
        assert steps[7][1] == []
        assert steps[8][1] == [Action("device", "cartman", "pick", "a")]
        assert state.picked_items == ["a"]

    def test_skip_wait_via_next_during_demo(self):
        state = TourState(Phase.HARVEY_DEMO)
        state, actions = tour_step(state, Event("button", "next"), TourConfig())
        assert state.phase == Phase.NAV_TO_CARTMAN
        assert actions == [Action("navigate", "marker3")]

    def test_unexpected_event_warns_without_transition(self):
        state, actions = tour_step(TourState(), Event("video_done"), TourConfig())
        assert state.phase == Phase.IDLE_AT_ENTRY
        assert actions == []
        assert state.warnings and "video_done" in state.warnings[0]

    def test_device_error_faults_from_any_phase(self):
        for phase in (Phase.HARVEY_VIDEO, Phase.CARTMAN_PICKING, Phase.NAV_TO_MEETING):
            state, _ = tour_step(TourState(phase), Event("device_error"), TourConfig())
            assert state.phase == Phase.FAULT

    def test_nav_failed_faults(self):
        state, _ = tour_step(TourState(Phase.NAV_TO_HARVEY), Event("nav_failed"), TourConfig())
        assert state.phase == Phase.FAULT

    def test_fault_absorbs_until_reset(self):
        state = TourState(Phase.FAULT)
        for ev in (Event("button", "start"), Event("nav_done"), Event("finish")):
            state, actions = tour_step(state, ev, TourConfig())
            assert state.phase == Phase.FAULT and actions == []
        state, _ = tour_step(state, Event("reset"), TourConfig())
        assert state.phase == Phase.IDLE_AT_ENTRY

    def test_connectivity_failed_stays_and_retries(self):
        state = TourState(Phase.CONNECTIVITY_CHECK)
        state, actions = tour_step(state, Event("connectivity_failed"), TourConfig())
        assert state.phase == Phase.CONNECTIVITY_CHECK and actions == []
        state, actions = tour_step(state, Event("button", "start"), TourConfig())
        assert actions == [Action("check_connectivity")]

    def test_transition_function_is_pure(self):
        before = TourState(Phase.CARTMAN_PICKING, ["x"])
        tour_step(before, Event("item_selected", "y"), TourConfig())
        assert before.picked_items == ["x"]


class TestDeviceProtocol:
    def test_health_and_routes(self):
        mocks, devices, shared = make_mocks()
        try:
            report = connectivity_check(devices)
            assert report == {d.name: True for d in devices}
            tv = next(d for d in devices if d.name == "tv_harvey")
            assert device_command(tv, "play", "harvey_field_video") == {"ok": True}
            robot = next(d for d in devices if d.name == "harvey")
            assert device_command(robot, "start_demo", "pick_sweet_pepper") == {"ok": True}
            assert mocks["tv_harvey"].playing == "harvey_field_video"
            assert mocks["harvey"].running_demo == "pick_sweet_pepper"
        finally:
            stop_all(mocks.values())

    def test_response_body_bytes(self):
        mocks, devices, _ = make_mocks()
        try:
            tv = next(d for d in devices if d.name == "tv_harvey")
            _, content = http(tv.base_url + "/media/play", {"id": "harvey_field_video"})
            assert content == b'{"ok":true}'
            _, health = http(tv.base_url + "/health")
            assert json.loads(health) == {"status": "ok"}
        finally:
            stop_all(mocks.values())

    def test_unknown_media_raises_after_retries(self):
        mocks, devices, _ = make_mocks()
        try:
            tv = next(d for d in devices if d.name == "tv_harvey")
            with pytest.raises(DeviceError) as exc:
                device_command(tv, "play", "nope", max_retries=2)
            assert "status 404" in str(exc.value)
        finally:
            stop_all(mocks.values())

    @pytest.mark.parametrize("status, attempts", [(404, 1), (409, 1), (503, 3)])
    def test_only_5xx_is_retried(self, status, attempts):
        server = CountingServer(status)
        try:
            with pytest.raises(DeviceError) as exc:
                device_command(server.endpoint, "pick", "item_1", max_retries=3)
        finally:
            server.close()
        assert f"status {status}" in str(exc.value)
        assert server.requests == attempts

    def test_fail_all_device(self):
        mocks, devices, _ = make_mocks(
            harvey=MockConfig("harvey", ROBOT, demos=["pick_sweet_pepper"], fail_all=True))
        try:
            robot = next(d for d in devices if d.name == "harvey")
            with pytest.raises(DeviceError):
                device_command(robot, "start_demo", "pick_sweet_pepper")
            report = connectivity_check(devices)
            assert report["harvey"] is False and report["tv_harvey"] is True
        finally:
            stop_all(mocks.values())

    def test_invalid_verb_for_kind(self):
        ep = DeviceEndpoint("tv", "http://127.0.0.1:1", "television")
        with pytest.raises(ValueError):
            device_command(ep, "pick", "x")

    def test_unreachable_endpoint(self):
        ep = DeviceEndpoint("ghost", "http://127.0.0.1:1", "robot")
        with pytest.raises(DeviceError):
            device_command(ep, "stop_demo", timeout=0.2, max_retries=2)
        assert connectivity_check([ep], timeout=0.2) == {"ghost": False}


class TestRunner:
    SCRIPT = [
        Event("button", "start"),
        Event("button", "next"),
        Event("item_selected", "item_3"),
        Event("item_selected", "item_7"),
        Event("finish"),
    ]

    def test_full_run_golden_log_and_commands(self):
        mocks, devices, shared = make_mocks()
        try:
            runner = TourRunner(TourConfig(devices=devices), lambda m: "reached")
            state = runner.run(self.SCRIPT)
        finally:
            stop_all(mocks.values())
        assert state.phase == Phase.DONE
        assert runner.transition_log() == GOLDEN_TRANSITIONS
        assert state.picked_items == ["item_3", "item_7"]
        verbs = [(name, verb) for name, verb, _ in shared]
        assert verbs == [
            ("tv_harvey", "health"), ("harvey", "health"),
            ("tv_cartman", "health"), ("cartman", "health"),
            ("tv_harvey", "play"), ("harvey", "start_demo"),
            ("tv_cartman", "play"), ("cartman", "pick"), ("cartman", "pick"),
        ]

    def test_one_device_down_blocks_at_connectivity(self):
        mocks, devices, _ = make_mocks(
            cartman=MockConfig("cartman", ROBOT, fail_all=True))
        try:
            runner = TourRunner(TourConfig(devices=devices), lambda m: "reached")
            state = runner.run(self.SCRIPT)
        finally:
            stop_all(mocks.values())
        assert state.phase == Phase.CONNECTIVITY_CHECK

    def test_device_fault_during_video(self):
        # tv_harvey lacks the configured media: play 404s, retries, faults
        mocks, devices, _ = make_mocks(
            tv_harvey=MockConfig("tv_harvey", TELEVISION, media=[]))
        try:
            runner = TourRunner(TourConfig(devices=devices), lambda m: "reached")
            state = runner.run(self.SCRIPT)
        finally:
            stop_all(mocks.values())
        assert state.phase == Phase.FAULT
        assert runner.transitions[-1] == "device_error -> FAULT"

    def test_nav_failure_faults(self):
        mocks, devices, _ = make_mocks()
        try:
            runner = TourRunner(TourConfig(devices=devices), lambda m: "blocked")
            state = runner.run(self.SCRIPT)
        finally:
            stop_all(mocks.values())
        assert state.phase == Phase.FAULT

    def test_event_endpoint_injection(self):
        runner = TourRunner(TourConfig(devices=[]), lambda m: "reached")
        port = runner.start_event_endpoint()
        try:
            url = f"http://127.0.0.1:{port}/event"
            status, content = http(url, {"name": "button", "arg": "start"})
            assert status == 200
            assert content == b'{"ok":true}'
            assert runner.events == [Event("button", "start")]
            assert http(url, data=b"not json")[0] == 400
            assert http(f"http://127.0.0.1:{port}/other", {})[0] == 404
        finally:
            runner.stop_event_endpoint()

    @pytest.mark.parametrize("body", [
        b"[]", b'"x"', b"5", b"null", b'{"name": "\xff"}', b'{"name": 5}', b'{"name": null}',
        b'{"arg": "start"}', b'{"name": "button", "arg": ["start"]}', b"[" * 100_000,
    ], ids=["list", "string", "number", "null", "not-utf8", "int-name", "null-name",
            "no-name", "list-arg", "deep-nesting"])
    def test_event_endpoint_rejects_bad_body(self, body):
        runner = TourRunner(TourConfig(devices=[]), lambda m: "reached")
        port = runner.start_event_endpoint()
        try:
            assert http(f"http://127.0.0.1:{port}/event", data=body)[0] == 400
            assert runner.events == []
            # the endpoint still serves after the bad request
            assert http(f"http://127.0.0.1:{port}/event", {"name": "button"})[0] == 200
        finally:
            runner.stop_event_endpoint()

    @pytest.mark.parametrize("length", ["abc", "1.5", "-1", "0x10"])
    def test_event_endpoint_rejects_bad_content_length(self, length):
        runner = TourRunner(TourConfig(devices=[]), lambda m: "reached")
        port = runner.start_event_endpoint()
        conn = HTTPConnection("127.0.0.1", port, timeout=2)
        try:
            conn.putrequest("POST", "/event")
            conn.putheader("Content-Length", length)
            conn.endheaders(b'{"name": "button"}')
            assert conn.getresponse().status == 400
            assert runner.events == []
        finally:
            conn.close()
            runner.stop_event_endpoint()
