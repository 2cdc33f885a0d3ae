"""Holonomic three-omni-wheel motion: corrected controller, forward
kinematics, and odometry integration.

Wheel drive rates follow the projection form
    W_i = wz + vx * cos(phi_i) + vy * sin(phi_i)
which is identical to theta + V*cos(phi_i - omega) with V = |v| and
omega = atan2(vy, vx). Positive wz rotates the robot to the left.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Pose2D, VelocityCommand, normalize_angle


@dataclass(frozen=True)
class WheelSpeeds:
    """Unitless drive rates for the front-left, front-right and back wheels."""

    w_fl: float
    w_fr: float
    w_b: float

    def __post_init__(self):
        for w in (self.w_fl, self.w_fr, self.w_b):
            if not math.isfinite(w):
                raise ValueError("non-finite wheel speed")

    def as_array(self) -> np.ndarray:
        return np.array([self.w_fl, self.w_fr, self.w_b])


@dataclass(frozen=True)
class WheelGeometry:
    """Wheel drive-direction bearings in the body frame (radians)."""

    phi_fl: float = math.radians(150.0)
    phi_fr: float = math.radians(30.0)
    phi_b: float = math.radians(270.0)

    def matrix(self) -> np.ndarray:
        """Rows map (vx, vy, wz) to each wheel's drive rate."""
        return np.array(
            [[math.cos(p), math.sin(p), 1.0] for p in (self.phi_fl, self.phi_fr, self.phi_b)]
        )


DEFAULT_GEOMETRY = WheelGeometry()


def inverse_kinematics(cmd: VelocityCommand, geom: WheelGeometry = DEFAULT_GEOMETRY) -> WheelSpeeds:
    """Body velocity command -> wheel drive rates."""
    w = geom.matrix() @ np.array([cmd.vx, cmd.vy, cmd.wz])
    return WheelSpeeds(*w)


def forward_kinematics(ws: WheelSpeeds, geom: WheelGeometry = DEFAULT_GEOMETRY) -> VelocityCommand:
    """Wheel drive rates -> body velocity; exact inverse of inverse_kinematics."""
    m = geom.matrix()
    if abs(np.linalg.det(m)) < 1e-12:
        raise ValueError("wheel geometry is singular: drive directions do not span the plane")
    v = np.linalg.solve(m, ws.as_array())
    return VelocityCommand(*v)


def arc_increment(cmd: VelocityCommand, dt: float) -> tuple[float, float, float]:
    """Body-frame displacement (sx, sy) and heading change of a constant
    body-frame velocity held for dt: the exact arc when wz != 0, else a
    straight line whose heading change, -0.0, leaves any heading unchanged."""
    if abs(cmd.wz) < 1e-12:
        return cmd.vx * dt, cmd.vy * dt, -0.0
    w = cmd.wz
    dth = w * dt
    # body-frame displacement of a constant-twist arc
    sx = (cmd.vx * math.sin(dth) - cmd.vy * (1.0 - math.cos(dth))) / w
    sy = (cmd.vx * (1.0 - math.cos(dth)) + cmd.vy * math.sin(dth)) / w
    return sx, sy, dth


def integrate_odometry(pose: Pose2D, cmd: VelocityCommand, dt: float) -> Pose2D:
    """Advance a pose by a constant body-frame velocity over dt seconds."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    sx, sy, dth = arc_increment(cmd, dt)
    th = pose.theta
    return Pose2D(
        pose.x + sx * math.cos(th) - sy * math.sin(th),
        pose.y + sx * math.sin(th) + sy * math.cos(th),
        th + dth,
    )


def circle_drive_headings(
    radius: float, speed: float, duration: float, dt: float, start: Pose2D | None = None
) -> list[tuple[float, Pose2D]]:
    """Sampled trajectory of the corrected controller driving a circle.

    Commands vx = speed, vy = 0, wz = speed/radius; heading stays tangent to
    the path at every sample. Returns (t, pose) pairs including t = 0.
    """
    if not (0.0 < radius < math.inf and 0.0 < speed < math.inf and 0.0 < dt < math.inf):
        raise ValueError("radius, speed and dt must be positive and finite")
    if not 0.0 <= duration < math.inf:
        raise ValueError(f"duration {duration!r} must be finite and non-negative")
    cmd = VelocityCommand(vx=speed, vy=0.0, wz=speed / radius)
    pose = start if start is not None else Pose2D()
    out = [(0.0, pose)]
    t = 0.0
    n = int(round(duration / dt))
    for k in range(n):
        step = min(dt, duration - t)
        if step <= 0:
            break
        pose = integrate_odometry(pose, cmd, step)
        t += step
        out.append((t, pose))
    return out


def tangency_error(samples: list[tuple[float, Pose2D]]) -> float:
    """Max |heading - path tangent| over consecutive sample pairs (radians)."""
    worst = 0.0
    for (_, a), (_, b) in zip(samples, samples[1:]):
        dx, dy = b.x - a.x, b.y - a.y
        if math.hypot(dx, dy) < 1e-12:
            continue
        # chord of an arc: tangent heading at midpoint equals chord direction
        mid = normalize_angle(0.5 * (a.theta + normalize_angle(b.theta - a.theta) + a.theta))
        err = abs(normalize_angle(mid - math.atan2(dy, dx)))
        worst = max(worst, err)
    return worst
