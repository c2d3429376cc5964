"""Each benchmark check must pass on good output and fail on a
deliberately wrong one, so that none passes vacuously.

    python3 -m pytest perfbench -q
"""

import pytest

from repro.api import Session, SessionSpec
from repro.cloth import Cloth
from repro.dynamics import Body
from repro.geometry import Sphere
from repro.math3d import Vec3

import checks
import scenes
from checks import CheckFailed
from tracing import Tracer


@pytest.fixture(scope="module")
def field():
    """contact-field one frame in, and its digest."""
    scene = scenes.contact_field(7, "numpy")
    with scene.scope.installed():
        scene.world.step_frame()
    return scene, checks.world_digest(scene.world)


def test_digest_matches_scalar_oracle(field):
    scene, digest = field
    oracle = scenes.contact_field(7, "scalar")
    with oracle.scope.installed():
        oracle.world.step_frame()
    checks.check_equal_digest("oracle", checks.world_digest(oracle.world),
                              digest)


def test_digest_sees_a_perturbed_body(field):
    scene, digest = field
    body = scene.world.bodies[123]
    saved = body.position
    body.position = saved + Vec3(1e-12, 0.0, 0.0)
    try:
        with pytest.raises(CheckFailed):
            checks.check_equal_digest(
                "perturbed", digest, checks.world_digest(scene.world))
    finally:
        body.position = saved
    checks.check_equal_digest("restored", digest,
                              checks.world_digest(scene.world))


def test_digest_sees_a_perturbed_cloth_vertex(field):
    scene, digest = field
    positions = scene.drape.positions
    saved = positions[300, 1]
    positions[300, 1] = saved + 1e-12
    try:
        with pytest.raises(CheckFailed):
            checks.check_equal_digest(
                "perturbed", digest, checks.world_digest(scene.world))
    finally:
        positions[300, 1] = saved


def test_energy_check():
    checks.check_energy([10.0, 9.0, 9.0, 8.5])
    with pytest.raises(CheckFailed):
        checks.check_energy([10.0, 9.0, 9.1, 8.5])


def test_population_off_by_one_body():
    scene = scenes.contact_field(1, "numpy")
    checks.check_population(scene, drape=True)
    with scene.scope.installed():
        scene.world.attach(Body(position=Vec3(0, 9, 0)), Sphere(0.3))
    with pytest.raises(CheckFailed):
        checks.check_population(scene, drape=True)


def test_population_off_by_one_humanoid_or_drape_vertex():
    pile = scenes.ragdoll_pile(1, "numpy")
    checks.check_population(pile, humanoids=scenes.HUMANOIDS)
    pile.humanoids.pop()
    with pytest.raises(CheckFailed):
        checks.check_population(pile, humanoids=scenes.HUMANOIDS)

    field = scenes.contact_field(1, "numpy")
    field.drape = Cloth(24, 26, 0.1, Vec3(0, 6, 0))
    with pytest.raises(CheckFailed):
        checks.check_population(field, drape=True)


def test_plausibility_applies_penetration_tolerance():
    scene = scenes.contact_field(1, "numpy")
    checks.check_plausible(scene.world)
    # A sphere sunk 0.25 m into the ground: ValidationReport.ok alone
    # still passes this world.
    scene.world.bodies[1].position = Vec3(0.0, 0.05, 0.0)
    with pytest.raises(CheckFailed, match="penetration"):
        checks.check_plausible(scene.world)


def test_plausibility_applies_joint_drift_tolerance():
    scene = scenes.ragdoll_pile(1, "numpy")
    checks.check_plausible(scene.world)
    head = scene.humanoids[0].bodies["head"]
    head.position = head.position + Vec3(0.0, 0.2, 0.0)
    with pytest.raises(CheckFailed, match="joint drift"):
        checks.check_plausible(scene.world)


def test_plausibility_rejects_non_finite_state():
    scene = scenes.contact_field(1, "numpy")
    scene.world.bodies[5].linear_velocity = Vec3(float("nan"), 0.0, 0.0)
    with pytest.raises(CheckFailed):
        checks.check_plausible(scene.world)


def test_served_check():
    spec = SessionSpec("periodic", scale=0.02, seed=3, backend="numpy")
    served = Session.create(spec)
    served.step(5)
    twin = Session.create(spec)
    twin.step(5)
    checks.check_served("s", [3, 4, 5], served.state_digest(),
                        twin.state_digest())
    with pytest.raises(CheckFailed, match="frame index"):
        checks.check_served("s", [3, 4, 6], served.state_digest(),
                            twin.state_digest())
    twin.step(1)
    with pytest.raises(CheckFailed, match="digest"):
        checks.check_served("s", [3, 4, 5], served.state_digest(),
                            twin.state_digest())


def test_tracing_leaves_the_trajectory_alone():
    plain = scenes.ragdoll_pile(2, "numpy")
    traced = scenes.ragdoll_pile(2, "numpy")
    tracer = Tracer()
    with tracer:
        for scene in (plain, traced):
            with scene.scope.installed():
                if scene is traced:
                    tracer.frame(scene.world.step_frame)
                else:
                    scene.world.step_frame()
    checks.check_equal_digest("traced", checks.world_digest(plain.world),
                              checks.world_digest(traced.world))
    layers = tracer.layer_metrics()
    assert layers["solve.ms"] > 0 and layers["rows.count"] > 0
    assert tracer.frames == 1 and not tracer.enabled

