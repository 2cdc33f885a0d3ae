"""Four-marker tour mission: deterministic state machine, HTTP device
clients, and the runner that wires both to the navigation layer.

Device wire protocol (JSON over HTTP/1.1):
  GET  /health                         -> 200 {"status":"ok"}
  GET  /media                          -> 200 {"media":[...]}   (television)
  POST /media/play  {"id": ...}        -> 200 {"ok":true}       (television)
  POST /media/stop                     -> 200 {"ok":true}       (television)
  POST /demo/start  {"id": ...}        -> 200 {"ok":true}       (robot)
  POST /demo/stop                      -> 200 {"ok":true}       (robot)
  POST /pick        {"item": ...}      -> 200 {"ok":true}       (robot)
"""

from __future__ import annotations

import enum
import http.client
import json
import threading
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class Phase(enum.Enum):
    IDLE_AT_ENTRY = "IDLE_AT_ENTRY"
    CONNECTIVITY_CHECK = "CONNECTIVITY_CHECK"
    NAV_TO_HARVEY = "NAV_TO_HARVEY"
    HARVEY_VIDEO = "HARVEY_VIDEO"
    HARVEY_DEMO = "HARVEY_DEMO"
    WAIT_NEXT_1 = "WAIT_NEXT_1"
    NAV_TO_CARTMAN = "NAV_TO_CARTMAN"
    CARTMAN_VIDEO = "CARTMAN_VIDEO"
    CARTMAN_PICKING = "CARTMAN_PICKING"
    NAV_TO_MEETING = "NAV_TO_MEETING"
    DONE = "DONE"
    FAULT = "FAULT"


NAV_PHASES = {Phase.NAV_TO_HARVEY, Phase.NAV_TO_CARTMAN, Phase.NAV_TO_MEETING}


@dataclass(frozen=True)
class Event:
    name: str  # button | nav_done | nav_failed | video_done | demo_done |
    #            device_error | item_selected | finish | connectivity_ok |
    #            connectivity_failed | reset
    arg: str | None = None

    def __str__(self) -> str:
        return f"{self.name}({self.arg})" if self.arg is not None else self.name


@dataclass(frozen=True)
class Action:
    kind: str  # check_connectivity | navigate | device
    target: str | None = None  # device name or marker id
    verb: str | None = None  # play | start_demo | pick
    arg: str | None = None


@dataclass
class TourState:
    phase: Phase = Phase.IDLE_AT_ENTRY
    picked_items: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class DeviceEndpoint:
    name: str
    base_url: str
    kind: str  # "robot" | "television"

    def __post_init__(self):
        if self.kind not in ("robot", "television"):
            raise ValueError(f"device {self.name!r}: kind {self.kind!r} is not robot or television")


@dataclass
class TourConfig:
    devices: list[DeviceEndpoint] = field(default_factory=list)
    markers: dict[str, str] = field(
        default_factory=lambda: {
            "entry": "marker1",
            "harvey": "marker2",
            "cartman": "marker3",
            "meeting": "marker4",
        }
    )
    harvey_tv: str = "tv_harvey"
    harvey_robot: str = "harvey"
    cartman_tv: str = "tv_cartman"
    cartman_robot: str = "cartman"
    harvey_media: str = "harvey_field_video"
    cartman_media: str = "cartman_challenge_video"
    harvey_demo: str = "pick_sweet_pepper"
    request_timeout: float = 2.0
    max_retries: int = 3

    def device(self, name: str) -> DeviceEndpoint:
        for d in self.devices:
            if d.name == name:
                return d
        raise KeyError(f"no device named {name!r}")


def tour_step(state: TourState, event: Event, cfg: TourConfig) -> tuple[TourState, list[Action]]:
    """Pure transition function: (state, event) -> (state, actions).

    Unexpected events leave the state unchanged and are recorded as
    warnings. device_error always faults; FAULT absorbs everything but
    reset.
    """
    p = state.phase

    def to(phase: Phase, actions: list[Action] = []):
        return TourState(phase, list(state.picked_items), list(state.warnings)), list(actions)

    if p == Phase.FAULT:
        if event.name == "reset":
            return TourState(Phase.IDLE_AT_ENTRY), []
        return state, []
    if event.name == "device_error":
        return to(Phase.FAULT)

    if p == Phase.IDLE_AT_ENTRY and event.name == "button" and event.arg == "start":
        return to(Phase.CONNECTIVITY_CHECK, [Action("check_connectivity")])
    if p == Phase.CONNECTIVITY_CHECK:
        if event.name == "connectivity_ok":
            return to(Phase.NAV_TO_HARVEY, [Action("navigate", cfg.markers["harvey"])])
        if event.name == "connectivity_failed":
            return state, []  # stay blocked; a new start button retries
        if event.name == "button" and event.arg == "start":
            return to(Phase.CONNECTIVITY_CHECK, [Action("check_connectivity")])
    if p == Phase.NAV_TO_HARVEY:
        if event.name == "nav_done":
            return to(Phase.HARVEY_VIDEO,
                      [Action("device", cfg.harvey_tv, "play", cfg.harvey_media)])
        if event.name == "nav_failed":
            return to(Phase.FAULT)
    if p == Phase.HARVEY_VIDEO and event.name == "video_done":
        return to(Phase.HARVEY_DEMO,
                  [Action("device", cfg.harvey_robot, "start_demo", cfg.harvey_demo)])
    if p == Phase.HARVEY_DEMO:
        if event.name == "demo_done":
            return to(Phase.WAIT_NEXT_1)
        if event.name == "button" and event.arg == "next":
            return to(Phase.NAV_TO_CARTMAN, [Action("navigate", cfg.markers["cartman"])])
    if p == Phase.WAIT_NEXT_1 and event.name == "button" and event.arg == "next":
        return to(Phase.NAV_TO_CARTMAN, [Action("navigate", cfg.markers["cartman"])])
    if p == Phase.NAV_TO_CARTMAN:
        if event.name == "nav_done":
            return to(Phase.CARTMAN_VIDEO,
                      [Action("device", cfg.cartman_tv, "play", cfg.cartman_media)])
        if event.name == "nav_failed":
            return to(Phase.FAULT)
    if p == Phase.CARTMAN_VIDEO and event.name == "video_done":
        return to(Phase.CARTMAN_PICKING)
    if p == Phase.CARTMAN_PICKING:
        if event.name == "item_selected":
            new = TourState(p, state.picked_items + [event.arg], list(state.warnings))
            return new, [Action("device", cfg.cartman_robot, "pick", event.arg)]
        if event.name == "finish":
            return to(Phase.NAV_TO_MEETING, [Action("navigate", cfg.markers["meeting"])])
    if p == Phase.NAV_TO_MEETING:
        if event.name == "nav_done":
            return to(Phase.DONE)
        if event.name == "nav_failed":
            return to(Phase.FAULT)

    warned = TourState(p, list(state.picked_items),
                       state.warnings + [f"ignored {event} in {p.value}"])
    return warned, []


class DeviceError(Exception):
    def __init__(self, reason: str, endpoint: DeviceEndpoint):
        super().__init__(f"{endpoint.name}: {reason}")
        self.reason = reason
        self.endpoint = endpoint


_ACTION_ROUTES = {
    ("television", "play"): ("POST", "/media/play", "id"),
    ("television", "stop"): ("POST", "/media/stop", None),
    ("television", "list_media"): ("GET", "/media", None),
    ("robot", "start_demo"): ("POST", "/demo/start", "id"),
    ("robot", "stop_demo"): ("POST", "/demo/stop", None),
    ("robot", "pick"): ("POST", "/pick", "item"),
}


def device_command(ep: DeviceEndpoint, verb: str, arg: str | None = None,
                   timeout: float = 2.0, max_retries: int = 3) -> dict:
    """Issue one device action, retrying transport errors, timeouts and 5xx
    replies.

    Raises DeviceError at once on a 4xx reply or a malformed body, and after
    max_retries attempts otherwise.
    """
    try:
        method, path, key = _ACTION_ROUTES[(ep.kind, verb)]
    except KeyError:
        raise ValueError(f"action {verb!r} invalid for device kind {ep.kind!r}") from None
    body = None if method == "GET" else json.dumps({key: arg} if key is not None else {}).encode()
    req = urllib.request.Request(ep.base_url + path, data=body, method=method,
                                 headers={"Content-Type": "application/json"})
    last = "unknown"
    for _ in range(max_retries):
        try:
            with urllib.request.urlopen(req, timeout=timeout) as resp:
                payload = resp.read()
        except urllib.error.HTTPError as e:
            e.close()
            if e.code < 500:
                raise DeviceError(f"status {e.code}", ep) from None
            last = f"status {e.code}"
            continue
        except (OSError, http.client.HTTPException) as e:
            # urlopen wraps connect-time errors, timeouts among them, in URLError
            reason = getattr(e, "reason", e)
            last = "timeout" if isinstance(reason, TimeoutError) else \
                f"transport: {type(reason).__name__}"
            continue
        try:
            return json.loads(payload)
        except ValueError:
            raise DeviceError("malformed body", ep) from None
    raise DeviceError(last, ep)


def connectivity_check(devices: list[DeviceEndpoint], timeout: float = 2.0) -> dict[str, bool]:
    """GET /health on every device; up means HTTP 200 within the timeout."""
    if not devices:
        raise ValueError("empty device list")
    report = {}
    for ep in devices:
        try:
            with urllib.request.urlopen(ep.base_url + "/health", timeout=timeout) as resp:
                report[ep.name] = resp.status == 200
        except (OSError, http.client.HTTPException):
            report[ep.name] = False
    return report


def _parse_event(body: bytes) -> Event:
    """The Event in a POST /event body: a JSON object with a string "name" and
    an optional string or null "arg". Raises ValueError otherwise, also for a
    body that is not UTF-8 or not JSON."""
    try:
        data = json.loads(body or b"{}")
    except RecursionError:
        raise ValueError("event body nests too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("event body must be a JSON object")
    name, arg = data.get("name"), data.get("arg")
    if not isinstance(name, str):
        raise ValueError('event "name" must be a string')
    if arg is not None and not isinstance(arg, str):
        raise ValueError('event "arg" must be a string or null')
    return Event(name, arg)


class TourRunner:
    """Event-queue driven mission executor.

    navigate_fn(marker_id) -> "reached" | "blocked" | "no-path" is supplied
    by the navigation layer (or a stub in tests).
    """

    def __init__(self, cfg: TourConfig, navigate_fn):
        self.cfg = cfg
        self.navigate_fn = navigate_fn
        self.state = TourState()
        self.transitions: list[str] = [f"* {self.state.phase.value}"]
        self.events: list[Event] = []
        self._event_server = None

    def inject(self, event: Event) -> None:
        self.events.append(event)

    def _execute(self, action: Action) -> None:
        cfg = self.cfg
        if action.kind == "check_connectivity":
            report = connectivity_check(cfg.devices, cfg.request_timeout)
            ok = all(report.values())
            self.inject(Event("connectivity_ok" if ok else "connectivity_failed"))
            return
        if action.kind == "navigate":
            outcome = self.navigate_fn(action.target)
            self.inject(Event("nav_done" if outcome == "reached" else "nav_failed"))
            return
        if action.kind == "device":
            ep = cfg.device(action.target)
            try:
                device_command(ep, action.verb, action.arg,
                               cfg.request_timeout, cfg.max_retries)
            except DeviceError:
                self.inject(Event("device_error"))
                return
            if action.verb == "play":
                self.inject(Event("video_done"))
            elif action.verb == "start_demo":
                self.inject(Event("demo_done"))
            return
        raise ValueError(f"unknown action kind {action.kind!r}")

    def process(self, event: Event) -> None:
        before = self.state.phase
        self.state, actions = tour_step(self.state, event, self.cfg)
        if self.state.phase != before:
            self.transitions.append(f"{event} -> {self.state.phase.value}")
        for action in actions:
            # sanity: motion and communication phases stay disjoint
            if action.kind == "device" and self.state.phase in NAV_PHASES:
                raise RuntimeError("device command attempted during navigation")
            self._execute(action)

    def drain(self) -> None:
        while self.events:
            self.process(self.events.pop(0))

    def run(self, external_events: list[Event]) -> TourState:
        """Feed external events one at a time, draining the internal queue
        after each. Stops early on DONE or FAULT."""
        for ev in external_events:
            self.inject(ev)
            self.drain()
            if self.state.phase in (Phase.DONE, Phase.FAULT):
                break
        return self.state

    def transition_log(self) -> str:
        return "\n".join(self.transitions) + "\n"

    def start_event_endpoint(self, port: int = 0) -> int:
        """Expose POST /event {"name":..., "arg":...} for external injection."""
        runner = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_POST(self):
                if self.path != "/event":
                    self.send_response(404)
                    self.end_headers()
                    return
                try:
                    length = int(self.headers.get("Content-Length") or 0)
                    if length < 0:
                        raise ValueError(f"negative Content-Length {length}")
                    event = _parse_event(self.rfile.read(length))
                except ValueError:
                    self.send_response(400)
                    self.end_headers()
                    return
                runner.inject(event)
                payload = b'{"ok":true}'
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

        self._event_server = ThreadingHTTPServer(("127.0.0.1", port), Handler)
        threading.Thread(target=self._event_server.serve_forever, kwargs={"poll_interval": 0.05},
                         daemon=True).start()
        return self._event_server.server_address[1]

    def stop_event_endpoint(self) -> None:
        if self._event_server is not None:
            self._event_server.shutdown()
            self._event_server.server_close()
            self._event_server = None
