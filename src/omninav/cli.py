"""Command-line entry point.

Subcommands: map-extract, controller-demo, simulate, localize, tour.
Exit codes: 0 success, 1 domain failure (no-path, blocked, empty input),
2 usage or input error: `main` turns every OSError, ValueError or KeyError
into one `error:` line. Every run first writes a manifest of its resolved
configuration to the output directory.
"""

from __future__ import annotations

import argparse
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import mapgen, sim, worlds
from .core import FREE, OCCUPIED, UNKNOWN, LaserScan, OccupancyGrid, Pose2D, ScanFrame
from .localization import MclConfig, MclFilter
from .motion import circle_drive_headings, tangency_error
from .navigate import Navigator
from .planning import load_markers
from .tour import DeviceEndpoint, Event, TourConfig, TourRunner
from .mockdev import ROBOT, TELEVISION, MockConfig, MockDeviceServer


def _read_config(path: str | None) -> dict[str, str]:
    """Flat `key = value` config file."""
    cfg: dict[str, str] = {}
    if path is None:
        return cfg
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ValueError(f"{path}:{lineno}: expected `key = value`")
        key, val = body.split("=", 1)
        cfg[key.strip()] = val.strip()
    return cfg


def _write_manifest(out_dir: Path, args: argparse.Namespace) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"{k} = {v}" for k, v in sorted(vars(args).items()) if k != "func"]
    (out_dir / "manifest.txt").write_text("\n".join(lines) + "\n")


def cmd_map_extract(args) -> int:
    out = Path(args.out)
    cfg = mapgen.MapGenConfig(
        z_min=args.z_min, z_max=args.z_max, resolution=args.resolution,
        denoise_min_cluster=args.min_cluster,
    )
    cloud = mapgen.read_point_cloud(args.cloud)
    if len(cloud) == 0:
        print("error: empty cloud", file=sys.stderr)
        return 1
    try:
        grid = mapgen.extract_map(cloud, cfg)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    map_path = out / "map.pgm"
    mapgen.write_map(grid, map_path)
    counts = {
        "occupied": int(np.count_nonzero(grid.cells == OCCUPIED)),
        "free": int(np.count_nonzero(grid.cells == FREE)),
        "unknown": int(np.count_nonzero(grid.cells == UNKNOWN)),
    }
    print(f"map {grid.width}x{grid.height} @ {grid.resolution} m/px -> {map_path}")
    print(f"cells occupied={counts['occupied']} free={counts['free']} unknown={counts['unknown']}")
    return 0


def cmd_controller_demo(args) -> int:
    out = Path(args.out)
    samples = circle_drive_headings(args.radius, args.speed, args.duration, args.dt)
    csv_path = out / "trajectory.csv"
    with open(csv_path, "w") as f:
        f.write("t,x,y,theta\n")
        for t, p in samples:
            f.write(f"{t:.6f},{p.x:.9f},{p.y:.9f},{p.theta:.9f}\n")
    err = tangency_error(samples)
    closure = math.hypot(samples[-1][1].x - samples[0][1].x, samples[-1][1].y - samples[0][1].y)
    print(f"samples={len(samples)} max_tangency_error={err:.3e} rad closure={closure:.3e} m")
    print(f"trajectory -> {csv_path}")
    return 0


def _world_from_args(args, config: dict[str, str]) -> tuple[sim.World, OccupancyGrid]:
    if args.map:
        grid = mapgen.read_map(args.map)
        world = sim.World(grid=grid, noise=sim.NoiseModel(rng_seed=args.seed))
        nav_map = grid
    else:
        world = worlds.lab_world(noise=sim.NoiseModel(rng_seed=args.seed))
        nav_map = worlds.lab_nav_map()
    if "robot" in config:
        x, y, th = (float(v) for v in config["robot"].split())
        world.robot = Pose2D(x, y, th)
    for key, val in config.items():
        if not key.startswith("obstacle."):
            continue
        oid = key.split(".", 1)[1]
        kind, *parts = val.split() or [""]
        n = sim.OBSTACLE_PARAMS.get(kind, 0)
        params = tuple(float(p) for p in parts[:n])
        rest = parts[n:]
        z_min = float(rest[0]) if len(rest) > 0 else 0.0
        z_max = float(rest[1]) if len(rest) > 1 else 2.0
        active = not (len(rest) > 2 and rest[2] == "off")
        world.obstacles.append(sim.Obstacle(oid, kind, params, z_min, z_max, active))
    return world, nav_map


def cmd_simulate(args) -> int:
    out = Path(args.out)
    config = _read_config(args.config)
    events = sim.parse_scenario(Path(args.scenario).read_text())
    world, nav_map = _world_from_args(args, config)
    markers = load_markers(args.markers) if args.markers else dict(worlds.MARKERS)
    nav = Navigator(world, markers, map_grid=nav_map)
    log = sim.run_scenario(world, events, duration=args.duration,
                           navigate_fn=nav.navigate_fn())
    log_path = out / "run.csv"
    sim.write_log(log, log_path)
    outcomes = [row.event for row in log if row.event.startswith("goto")]
    for o in outcomes:
        print(o)
    failed = any(("no-path" in o or "blocked" in o) for o in outcomes)
    print(f"log -> {log_path}")
    return 1 if failed else 0


def cmd_localize(args) -> int:
    out = Path(args.out)
    grid = mapgen.read_map(args.map)
    rows = Path(args.log).read_text().splitlines()
    cfg = MclConfig(particle_count=args.particles, rng_seed=args.seed)
    mcl = MclFilter(grid, cfg)
    x, y, th = args.init
    mcl.initialize_around(Pose2D(x, y, th), args.spread, math.radians(args.spread_deg))

    scan_meta = None
    est_path = out / "estimates.csv"
    with open(est_path, "w") as f:
        f.write("t,x,y,theta\n")
        for lineno, row in enumerate(rows, 1):
            if not row.strip() or row.startswith("t,"):
                continue
            parts = row.split(",", 2)
            try:
                if len(parts) < 3:
                    raise ValueError("malformed row")
                t, kind, payload = parts
                if kind not in ("scanmeta", "odom", "scan"):
                    raise ValueError(f"unknown row type {kind!r}")
                values = [float(v) for v in payload.split()]
                if kind == "scanmeta":
                    if len(values) != 5:
                        raise ValueError("scanmeta needs 5 numbers: angle_min angle_max "
                                         "angle_increment range_min range_max")
                    scan_meta = values
                    continue
                if kind == "odom":
                    if len(values) != 3:
                        raise ValueError("odom needs 3 numbers: dx dy dtheta")
                    est = mcl.update(Pose2D(*values), None)
                else:
                    if scan_meta is None:
                        raise ValueError("scan row before scanmeta")
                    est = mcl.update(Pose2D(), LaserScan(*scan_meta, values, ScanFrame.MERGED))
            except ValueError as e:
                raise ValueError(f"{args.log}:{lineno}: {e}") from None
            f.write(f"{t},{est.x:.6f},{est.y:.6f},{est.theta:.6f}\n")
    print(f"estimates -> {est_path}")
    return 0


def cmd_tour(args) -> int:
    out = Path(args.out)
    mocks: list[MockDeviceServer] = []
    shared_log: list = []
    if args.mock:
        specs = [
            MockConfig("tv_harvey", TELEVISION, media=["harvey_field_video"]),
            MockConfig("harvey", ROBOT, demos=["pick_sweet_pepper"]),
            MockConfig("tv_cartman", TELEVISION, media=["cartman_challenge_video"]),
            MockConfig("cartman", ROBOT, items=[]),
        ]
        mocks = [MockDeviceServer(s, shared_log).start() for s in specs]
        devices = [
            DeviceEndpoint(m.config.name, m.base_url, m.config.kind) for m in mocks
        ]
    else:
        config = _read_config(args.config)
        devices = []
        for key, val in config.items():
            if key.startswith("device."):
                name = key.split(".", 1)[1]
                parts = val.split(None, 1)
                if len(parts) != 2:
                    raise ValueError(f"{key} = {val!r}: expected `<kind> <url>`")
                kind, url = parts
                devices.append(DeviceEndpoint(name, url, kind))
        if not devices:
            raise ValueError("no devices configured (use --mock or device.* keys)")
    cfg = TourConfig(devices=devices)
    world = worlds.lab_world(noise=sim.NoiseModel(rng_seed=args.seed))
    nav = Navigator(world, dict(worlds.MARKERS), map_grid=worlds.lab_nav_map())
    runner = TourRunner(cfg, nav.navigate_to_marker)
    script = [
        Event("button", "start"),
        Event("demo_done"),
        Event("button", "next"),
        Event("item_selected", "item_3"),
        Event("item_selected", "item_7"),
        Event("finish"),
    ]
    try:
        state = runner.run(script)
    finally:
        # each stop() waits out up to one serve_forever poll: overlap the waits
        with ThreadPoolExecutor() as pool:
            list(pool.map(MockDeviceServer.stop, mocks))
    (out / "transitions.txt").write_text(runner.transition_log())
    if shared_log:
        (out / "device_commands.txt").write_text(
            "\n".join(" ".join(filter(None, e)) for e in shared_log) + "\n"
        )
    print(f"final state: {state.phase.value}")
    print(f"transitions -> {out / 'transitions.txt'}")
    return 0 if state.phase.value == "DONE" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="omninav")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="out")
    parser.add_argument("--config", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("map-extract", help="point cloud -> occupancy map")
    p.add_argument("cloud")
    p.add_argument("--resolution", type=float, default=0.05)
    p.add_argument("--z-min", type=float, default=0.05)
    p.add_argument("--z-max", type=float, default=1.2)
    p.add_argument("--min-cluster", type=int, default=3)
    p.set_defaults(func=cmd_map_extract)

    p = sub.add_parser("controller-demo", help="corrected-controller circle drive")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--speed", type=float, default=math.pi / 2)
    p.add_argument("--duration", type=float, default=4.0)
    p.add_argument("--dt", type=float, default=0.01)
    p.set_defaults(func=cmd_controller_demo)

    p = sub.add_parser("simulate", help="run a scripted scenario")
    p.add_argument("scenario")
    p.add_argument("--map", default=None)
    p.add_argument("--markers", default=None)
    p.add_argument("--duration", type=float, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("localize", help="replay a scan/odometry log through MCL")
    p.add_argument("log")
    p.add_argument("--map", required=True)
    p.add_argument("--particles", type=int, default=500)
    p.add_argument("--init", type=float, nargs=3, default=[0.0, 0.0, 0.0],
                   metavar=("X", "Y", "THETA"))
    p.add_argument("--spread", type=float, default=0.5)
    p.add_argument("--spread-deg", type=float, default=20.0)
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("tour", help="run the four-marker tour mission")
    p.add_argument("--mock", action="store_true", help="spawn local mock devices")
    p.set_defaults(func=cmd_tour)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        _write_manifest(Path(args.out), args)
        return args.func(args)
    except (OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
