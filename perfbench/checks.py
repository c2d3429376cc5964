"""Output checks the benchmark runs outside its timed loops.

None of them compares against a stored copy of today's output: the
engine scenes are checked against the scalar oracle and against
physical limits, and served sessions against an in-process replay of
their own spec. Each check raises :class:`CheckFailed`.
"""

from __future__ import annotations

import hashlib

from repro.workloads import validate_world

from scenes import DRAPE_VERTICES, DYNAMIC_BODIES

#: Deepest contact and largest joint anchor error a plausible world may
#: hold. ``ValidationReport.ok`` ignores both (it only appends a note),
#: so :func:`check_plausible` applies them itself.
PENETRATION_TOLERANCE = 0.15
JOINT_DRIFT_TOLERANCE = 0.08

#: Largest frame-to-frame rise of rigid-body mechanical energy, as a
#: share of the energy before the frame. Nothing in the scenes adds
#: energy after the build (no cannons, motors or blasts), so anything
#: above float rounding is energy the solver created.
ENERGY_RISE_TOLERANCE = 1e-9


class CheckFailed(AssertionError):
    """A program output failed one of the benchmark's checks."""


def world_digest(world) -> str:
    """sha256 over every body's pose and velocity and every cloth's
    vertex positions (``Session.state_digest`` covers bodies only)."""
    hasher = hashlib.sha256()
    for body in world.bodies:
        p, q = body.position, body.orientation
        v, w = body.linear_velocity, body.angular_velocity
        hasher.update(repr((body.uid, body.enabled,
                            p.x, p.y, p.z, q.w, q.x, q.y, q.z,
                            v.x, v.y, v.z, w.x, w.y, w.z)).encode())
    for cloth in world.cloths:
        hasher.update(cloth.positions.tobytes())
        hasher.update(cloth.prev_positions.tobytes())
    return hasher.hexdigest()


def check_equal_digest(what: str, expected: str, actual: str):
    if expected != actual:
        raise CheckFailed(f"{what}: digest {actual[:16]} differs from"
                          f" {expected[:16]}")


def check_population(scene, humanoids: int = 0, drape: bool = False):
    """The scene holds the Table 4 population it claims to."""
    world = scene.world
    found = len(world.dynamic_bodies())
    if found != DYNAMIC_BODIES:
        raise CheckFailed(f"{found} dynamic bodies, Table 4 has"
                          f" {DYNAMIC_BODIES}")
    if len(scene.humanoids) != humanoids:
        raise CheckFailed(f"{len(scene.humanoids)} humanoids, expected"
                          f" {humanoids}")
    vertices = scene.drape.num_vertices if scene.drape else 0
    if vertices != (DRAPE_VERTICES if drape else 0):
        raise CheckFailed(f"drape has {vertices} vertices, Table 4 has"
                          f" {DRAPE_VERTICES}")


def check_plausible(world):
    """Finite state, no escapes, and both tolerances applied."""
    report = validate_world(world,
                            penetration_tolerance=PENETRATION_TOLERANCE,
                            joint_tolerance=JOINT_DRIFT_TOLERANCE)
    problems = []
    if not report.ok:
        problems.append(report.summary())
    if report.max_penetration > PENETRATION_TOLERANCE:
        problems.append(f"penetration {report.max_penetration:.4f} m")
    if report.max_joint_drift > JOINT_DRIFT_TOLERANCE:
        problems.append(f"joint drift {report.max_joint_drift:.4f} m")
    if problems:
        raise CheckFailed("implausible world: " + "; ".join(problems))
    return report


def mechanical_energy(world) -> float:
    """Kinetic plus gravitational energy of the enabled rigid bodies
    (gravity along -y, ground plane at y = 0)."""
    g = -world.config.gravity.y
    return sum(body.kinetic_energy() + body.mass * g * body.position.y
               for body in world.dynamic_bodies())


def check_energy(series):
    """Energy never rises from one frame to the next beyond the
    tolerance; ``series`` holds one value per consecutive frame."""
    for frame, (before, after) in enumerate(zip(series, series[1:])):
        if after - before > ENERGY_RISE_TOLERANCE * abs(before):
            raise CheckFailed(f"energy rose by {after - before:.6g} J"
                              f" in frame {frame + 1}")


def check_served(session_id: str, frame_indices, served_digest: str,
                 replay_digest: str):
    """Each served ``step(1)`` advanced the frame index by exactly one,
    and the final state equals the in-process replay."""
    for before, after in zip(frame_indices, frame_indices[1:]):
        if after != before + 1:
            raise CheckFailed(f"{session_id}: step advanced frame index"
                              f" {before} -> {after}")
    check_equal_digest(f"{session_id} served vs replay", replay_digest,
                       served_digest)
