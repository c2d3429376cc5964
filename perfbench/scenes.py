"""The engine scenes the benchmark builds for itself.

Both scenes reproduce a Table 4 population from the public building
blocks (``World``, ``repro.workloads.scenes``, ``Cloth``) instead of
calling the Table 3 scene functions in ``repro.workloads.benchmarks``,
so retuning those cannot silently change the benchmark's inputs.
Every scene is built under its own ``UidScope``: two builds of one seed
draw the same body uids in any process, which the oracle and
cross-process set-up checks rely on.
"""

from __future__ import annotations

import math
import random

from repro.api import UidScope
from repro.cloth import Cloth
from repro.dynamics import Body
from repro.engine import World, WorldConfig
from repro.geometry import Box, Sphere
from repro.math3d import Vec3
from repro.workloads import scenes

#: Table 4 populations the input check holds every build to.
DYNAMIC_BODIES = 480
HUMANOIDS = 30
DRAPE_VERTICES = 625


class Scene:
    """A built world plus the handles the checks need."""

    def __init__(self, world, scope, humanoids=(), drape=None):
        self.world = world
        self.scope = scope
        self.humanoids = list(humanoids)
        self.drape = drape


def contact_field(seed: int, backend: str) -> Scene:
    """Table 4 Periodic: 480 spheres and crates above a ground plane,
    with the Deformable scene's pinned 625-vertex drape hung over them.

    The seed jitters each body's place on the 1.4 m grid.
    """
    rng = random.Random(seed)
    scope = UidScope()
    with scope.installed():
        world = World(WorldConfig(), backend=backend)
        scenes.make_ground(world)
        side = int(math.sqrt(DYNAMIC_BODIES))
        for k in range(DYNAMIC_BODIES):
            i, j = k % side, k // side
            x = (i - side / 2) * 1.4 + rng.uniform(-0.1, 0.1)
            z = (j - side / 2) * 1.4 + rng.uniform(-0.1, 0.1)
            body = Body(position=Vec3(x, 1.5 + (k % 5) * 0.8, z))
            if k % 3 == 0:
                world.attach(body, Box.from_dimensions(0.5, 0.5, 0.5),
                             density=400.0, restitution=0.6)
            else:
                world.attach(body, Sphere(0.3), density=600.0,
                             restitution=0.75)
        drape = Cloth(25, 25, 0.1, Vec3(-1.25, 6.5, 0.0),
                      pin_top_row=True)
        drape.ground_height = 0.0
        world.add_cloth(drape)
    return Scene(world, scope, drape=drape)


def ragdoll_pile(seed: int, backend: str) -> Scene:
    """Table 4 Ragdoll: 30 humanoids (480 bodies, 450 joints) tossed
    from three heights on a 2 m grid; the lowest row stands on the
    ground, so contacts start within the first frames.

    The seed draws each humanoid's toss velocity.
    """
    rng = random.Random(seed)
    scope = UidScope()
    humanoids = []
    with scope.installed():
        world = World(WorldConfig(), backend=backend)
        scenes.make_ground(world)
        for k in range(HUMANOIDS):
            i, j = k % 6, k // 6
            base = Vec3((i - 2.5) * 2.0, 0.25 * (k % 3), (j - 2) * 2.0)
            doll = scenes.make_humanoid(world, base)
            doll.set_velocity(Vec3(rng.uniform(-1.5, 1.5),
                                   rng.uniform(0.0, 1.0),
                                   rng.uniform(-1.5, 1.5)))
            humanoids.append(doll)
    return Scene(world, scope, humanoids=humanoids)
