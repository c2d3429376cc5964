"""The two engine workloads: contact-field and ragdoll-pile.

A run sets the scene up, then times whole cycles of rendered frames
until ``--seconds`` have passed. Each cycle starts from the snapshot
taken at the end of set-up and is restored in place before the next,
so every cycle steps the same frames: a faster program runs more
cycles of the same work instead of reaching later, costlier frames of
a settling scene. Checks run outside the timed frames.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import subprocess
import sys
import time
from statistics import median

from repro.resilience import WorldSnapshot

import checks
import scenes
from measure import percentile
from tracing import Tracer


class EngineWorkload:
    """One engine scene and how a run steps and checks it.

    A cycle runs ``cycle`` frames from the state after ``warmup``
    frames; ``tail`` is the highest percentile that keeps at least ten
    of a run's frames beyond it.
    """

    def __init__(self, build, population, warmup, cycle, tail):
        self.build = build
        self.population = population
        self.warmup = warmup
        self.cycle = cycle
        self.tail = tail


WORKLOADS = {
    # Cycle: frames 2-42, the fall onto the ground and the first
    # bounces.
    "contact-field": EngineWorkload(
        scenes.contact_field, {"drape": True},
        warmup=2, cycle=40, tail=90),
    # Cycle: frames 2-14, the toss and the first pile-up.
    "ragdoll-pile": EngineWorkload(
        scenes.ragdoll_pile, {"humanoids": scenes.HUMANOIDS},
        warmup=2, cycle=12, tail=75),
}

#: Set-ups per run, each in a fresh interpreter so first-use work shows.
SETUPS = 9
BACKEND = "numpy"


def set_up(name: str, seed: int):
    """Build the scene, step the warm-up frames and snapshot it.

    Returns ``(seconds, scene, snapshot)``.
    """
    workload = WORKLOADS[name]
    start = time.perf_counter()
    scene = workload.build(seed, BACKEND)
    with scene.scope.installed():
        for _ in range(workload.warmup):
            scene.world.step_frame()
        snapshot = WorldSnapshot.capture(scene.world).to_dict()
    return time.perf_counter() - start, scene, snapshot


def timed_set_ups(name: str, seed: int):
    """Set up ``SETUPS`` times, each in a new interpreter that this
    process waits for. Returns ``(seconds, digest)`` per set-up."""
    here = os.path.dirname(os.path.abspath(__file__))
    command = [sys.executable, os.path.join(here, "engine_workload.py"),
               name, str(seed)]
    env = dict(os.environ,
               PYTHONPATH=os.path.join(os.path.dirname(here), "src"))
    results = []
    for _ in range(SETUPS):
        done = subprocess.run(command, env=env, capture_output=True,
                              text=True, timeout=120, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"fresh set-up exited {done.returncode}:"
                               f"\n{done.stderr}")
        seconds, digest = json.loads(done.stdout)
        results.append((seconds, digest))
    return results


def time_cycles(workload, scene, snapshot, seconds, tracer):
    """Step whole cycles from ``snapshot`` until ``seconds`` have passed,
    checking energy and replay after each, and plausibility after every
    frame of the first. Returns the frame seconds (keyed by whether the
    frame was traced), the cycle count and the digest at the end of a
    cycle."""
    world = scene.world
    times = {True: [], False: []}
    cycle_digest = None
    cycles = 0
    gc.collect()
    with scene.scope.installed(), (tracer or contextlib.nullcontext()):
        started = time.perf_counter()
        while True:
            energy = [checks.mechanical_energy(world)]
            for frame in range(workload.cycle):
                traced = tracer is not None and (frame + cycles) % 2 == 0
                begin = time.perf_counter()
                if traced:
                    tracer.frame(world.step_frame)
                else:
                    world.step_frame()
                times[traced].append(time.perf_counter() - begin)
                energy.append(checks.mechanical_energy(world))
                if cycles == 0:
                    checks.check_plausible(world)
            checks.check_energy(energy)
            digest = checks.world_digest(world)
            if cycles == 0:
                cycle_digest = digest
            checks.check_equal_digest(f"cycle {cycles} replay",
                                      cycle_digest, digest)
            cycles += 1
            # A traced run ends on an even cycle count, so every frame of
            # the cycle is traced and untraced equally often.
            if (time.perf_counter() - started >= seconds
                    and (tracer is None or cycles % 2 == 0)):
                return times, cycles, cycle_digest
            WorldSnapshot.from_dict(snapshot).restore(world)


def check_oracle(workload, seed: int, cycle_digest: str):
    """Every timed frame equals the same scene stepped as far on the
    scalar oracle backend."""
    oracle = workload.build(seed, "scalar")
    with oracle.scope.installed():
        for _ in range(workload.warmup + workload.cycle):
            oracle.world.step_frame()
    checks.check_equal_digest("numpy vs scalar oracle",
                              checks.world_digest(oracle.world),
                              cycle_digest)


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    fresh = timed_set_ups(name, seed)
    _, scene, snapshot = set_up(name, seed)
    reference = checks.world_digest(scene.world)
    for _, digest in fresh:
        checks.check_equal_digest("set-up in a fresh process", reference,
                                  digest)
    checks.check_population(scene, **workload.population)

    tracer = Tracer() if trace else None
    times, cycles, cycle_digest = time_cycles(workload, scene, snapshot,
                                              seconds, tracer)
    check_oracle(workload, seed, cycle_digest)

    # A traced run reports no end-to-end figures, but its untraced
    # frames still give them for the overhead estimate below.
    frames = times[False]
    result = {
        "attempted": len(frames) + len(times[True]),
        "failed": 0,
        "samples": {"frames": len(frames), "cycles": cycles,
                    "cycle_frames": workload.cycle,
                    "setups": len(fresh)},
        "tail": workload.tail,
        "end_to_end": {
            "frame_ms_p50": 1e3 * median(frames),
            "setup_s": median([s for s, _ in fresh]),
        },
        "tail_ms": 1e3 * percentile(frames, workload.tail),
        "layers": {},
    }
    if tracer is not None:
        layers = result["layers"]
        layers.update(tracer.layer_metrics())
        layers["trace.overhead_ms"] = 1e3 * (median(times[True])
                                             - median(times[False]))
        result["tracer"] = tracer
    return result


if __name__ == "__main__":
    # One fresh set-up, run by ``timed_set_ups``: prints its seconds and
    # the digest of the set-up world.
    spent, built, _ = set_up(sys.argv[1], int(sys.argv[2]))
    print(json.dumps([spent, checks.world_digest(built.world)]))
