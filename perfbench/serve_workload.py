"""serve-30fps: an open-loop fleet of sessions through ``repro.serve``.

Every session is due one ``step(1)`` every 1/30 s on a shared tick, as
a game server's clients would be, whether or not its earlier frames
have come back; latency runs from the due time to the reply. The fleet
starts on shard 0 and in the middle of the run moves, session by
session, to shard 1 (checkpoint -> destroy -> restore), as when a
shard is drained; frames that fall due while a session moves are sent
as soon as it lands. One shard steps at a time: on a 2-core machine,
two busy shards beside this process make every timing far noisier.
All load comes from this one process, and the shards are never traced.
After the service has stopped, every session is replayed in process
and must end in the served state.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import os
import pickle
import threading
import time
import traceback
from multiprocessing import resource_tracker
from statistics import median

from repro.api import Session, SessionSpec
from repro.serve.protocol import ServeError
from repro.serve.routing import shard_for
from repro.serve.service import SimService

import checks
from measure import percentile
from tracing import Tracer

FPS = 30
WARMUP_FRAMES = 3
SETUPS = 9
TAIL = 90
#: The fleet: three 5-body periodic sessions, stepped in one packed
#: solve per tick, which keep a shard about 40% busy. Articulated
#: sessions cost too much for a half-busy shard at 30 FPS: a
#: single-humanoid ragdoll takes 12-26 ms a frame and a single car 11 ms.
FLEET = (("periodic", 0.01), ("periodic", 0.01), ("periodic", 0.01))
BACKEND = "numpy"


def shard_count() -> int:
    """Two shards, but never more than the machine has cores."""
    return max(1, min(2, os.cpu_count() or 1))


class Member:
    """One served session and what the run saw of it."""

    def __init__(self, session_id: str, spec: SessionSpec):
        self.session_id = session_id
        self.spec = spec
        self.migrate_tick = None
        self.ready = asyncio.Event()  # cleared while it migrates
        self.ready.set()
        self.frame_indices = []  # reply frame_index, in send order
        self.failed = 0


def fleet(seed: int):
    """The sessions, with ids picked to route to shard 0 (ids route by
    hash)."""
    members = []
    index = 0
    for number, (kind, scale) in enumerate(FLEET):
        while shard_for(f"{kind}-{index}", shard_count()) != 0:
            index += 1
        spec = SessionSpec(kind, scale=scale, seed=seed * 1000 + number,
                           backend=BACKEND)
        members.append(Member(f"{kind}-{index}", spec))
        index += 1
    return members


async def set_up(members, shards):
    """Start the service, create the fleet and step the warm-up frames.
    Returns ``(seconds, service)``."""
    start = time.perf_counter()
    service = SimService.start(n_shards=shards, start_method="spawn")
    try:
        await asyncio.gather(*(service.create_session(m.session_id,
                                                      m.spec)
                               for m in members))
        for _ in range(WARMUP_FRAMES):
            await asyncio.gather(*(service.step(m.session_id, 1)
                                   for m in members))
    except BaseException:
        await service.close()
        raise
    return time.perf_counter() - start, service


class Fleet:
    """The open-loop generator and what it measured."""

    def __init__(self, service, members, shards):
        self.service = service
        self.members = members
        self.shards = shards
        self.latencies = []  # due -> reply seconds
        self.round_trips = []  # send -> reply seconds
        self.migrations = []  # seconds
        self.lags = []  # generator lateness per tick
        self.failed = 0
        self.seconds = 0.0  # from the first due time to the last reply

    async def step(self, member, due):
        await member.ready.wait()
        sent = time.perf_counter()
        try:
            reply = await self.service.step(member.session_id, 1)
        except (ServeError, asyncio.TimeoutError):
            member.failed += 1
            self.failed += 1
            return
        done = time.perf_counter()
        member.frame_indices.append(reply["frame_index"])
        self.latencies.append(done - due)
        self.round_trips.append(done - sent)

    async def migrate(self, member):
        service = self.service
        session_id = member.session_id
        start = time.perf_counter()
        try:
            source = service.cluster.routing.shard_of(session_id)
            payload = await service.checkpoint(session_id)
            await service.destroy(session_id)
            await service.restore_session(session_id, payload,
                                          (source + 1) % self.shards)
            self.migrations.append(time.perf_counter() - start)
        except (ServeError, asyncio.TimeoutError):
            self.failed += 1
        finally:
            member.ready.set()

    async def drive(self, ticks: int):
        tasks = []
        start = time.perf_counter() + 0.05
        for tick in range(ticks):
            due = start + tick / FPS
            await asyncio.sleep(max(0.0, due - time.perf_counter()))
            self.lags.append(max(0.0, time.perf_counter() - due))
            # Steps of one session wake in the order they queued, so
            # they reach the shard in tick order.
            steps = [asyncio.ensure_future(self.step(member, due))
                     for member in self.members]
            tasks += steps
            if tick == ticks // 2:
                # The fleet moves once the tick's frames are back, so
                # the moves start on an idle shard.
                await asyncio.gather(*steps)
                for member in self.members:
                    member.migrate_tick = tick
                    member.ready.clear()
                    tasks.append(asyncio.ensure_future(
                        self.migrate(member)))
        await asyncio.gather(*tasks)
        self.seconds = time.perf_counter() - start


def _frame_stats(stats):
    """(frames, batched frames, frame seconds) summed over shards."""
    frames = batched = seconds = 0.0
    for shard in stats["shards"]:
        frames += shard["counters"]["frames"]
        batched += shard["counters"]["batched_frames"]
        seconds += shard["frame_times"]["sum"]
    return frames, batched, seconds


def replay(member, frames: int, tracer, parity: int):
    """Step an in-process twin of ``member``'s spec ``frames`` frames,
    moving a copy through checkpoint -> restore where the served session
    moved. Returns the twin, its frame times by traced/untraced, and
    the checkpoint and restore seconds and payload size."""
    twin = Session.create(member.spec)
    times = {True: [], False: []}
    move = None
    moved_at = WARMUP_FRAMES + member.migrate_tick + 1
    for frame in range(frames):
        if frame == moved_at:
            start = time.perf_counter()
            payload = pickle.dumps(twin.checkpoint())
            saved = time.perf_counter()
            copy = Session.restore(pickle.loads(payload))
            restored = time.perf_counter()
            checks.check_equal_digest(
                f"{member.session_id} restored twin",
                twin.state_digest(), copy.state_digest())
            move = (saved - start, restored - saved, len(payload))
        traced = tracer is not None and (frame + parity) % 2 == 0
        begin = time.perf_counter()
        if traced:
            tracer.frame(lambda: twin.step(1))
        else:
            twin.step(1)
        times[traced].append(time.perf_counter() - begin)
    return twin, times, move


async def _serve(seed: int, seconds: float):
    shards = shard_count()
    members = fleet(seed)
    setups = []
    for _ in range(SETUPS - 1):
        spent, service = await set_up(members, shards)
        setups.append(spent)
        await service.close()
    spent, service = await set_up(members, shards)
    setups.append(spent)
    run = Fleet(service, members, shards)
    try:
        before = await service.stats()
        gc.collect()
        await run.drive(round(seconds * FPS))
        after = await service.stats()
        described = await asyncio.gather(*(service.query(m.session_id)
                                           for m in members))
    finally:
        await service.close()
        run.service = None
    return run, setups, before, after, described


def stop_resource_tracker():
    """Stop the resource tracker process that spawned shards start, and
    wait for it, once nothing holds the service's queues: it would
    otherwise outlive this process."""
    # Collecting a dropped queue ends its feeder thread, which holds the
    # queue's semaphores until it has ended.
    gc.collect()
    for thread in threading.enumerate():
        if thread.name == "QueueFeederThread":
            thread.join(timeout=10)
    gc.collect()
    resource_tracker._resource_tracker._stop()


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    try:
        fleet_run, setups, before, after, described = asyncio.run(
            _serve(seed, seconds))
    except BaseException as error:
        # Free the frames that hold the closed service.
        traceback.clear_frames(error.__traceback__)
        raise
    finally:
        stop_resource_tracker()
    members = fleet_run.members
    ticks = round(seconds * FPS)

    tracer = Tracer() if trace else None
    times = {True: [], False: []}
    moves = []
    with (tracer or contextlib.nullcontext()):
        for parity, (member, served) in enumerate(zip(members,
                                                      described)):
            expected = WARMUP_FRAMES + ticks - member.failed
            if served["frame_index"] != expected:
                raise checks.CheckFailed(
                    f"{member.session_id} served {served['frame_index']}"
                    f" frames, {expected} were stepped")
            twin, twin_times, move = replay(member, expected, tracer,
                                            parity)
            checks.check_served(member.session_id,
                                [WARMUP_FRAMES] + member.frame_indices,
                                served["digest"], twin.state_digest())
            for traced in times:
                times[traced] += twin_times[traced]
            moves.append(move)

    frames0, batched0, seconds0 = _frame_stats(before)
    frames1, batched1, seconds1 = _frame_stats(after)
    shard_frames = frames1 - frames0
    shard_frame_ms = 1e3 * (seconds1 - seconds0) / shard_frames
    round_trip_ms = 1e3 * sum(fleet_run.round_trips) / len(
        fleet_run.round_trips)
    result = {
        "attempted": ticks * len(members) + len(members),
        "failed": fleet_run.failed,
        "samples": {"frames": len(fleet_run.latencies),
                    "sessions": len(members), "shards": fleet_run.shards,
                    "setups": len(setups),
                    "migrations": len(fleet_run.migrations)},
        "tail": TAIL,
        "end_to_end": {
            "frame_ms_p50": 1e3 * median(fleet_run.latencies),
            "setup_s": median(setups),
        },
        "tail_ms": 1e3 * percentile(fleet_run.latencies, TAIL),
        "layers": {
            "migrate.ms": 1e3 * median(fleet_run.migrations),
            "serve.shard_frame_ms": shard_frame_ms,
            "serve.overhead_ms": round_trip_ms - shard_frame_ms,
            "serve.batched_share": (batched1 - batched0) / shard_frames,
            "serve.shard_busy": (seconds1 - seconds0) / fleet_run.seconds,
            "serve.queue_depth_peak": after["queue_depth_peak"],
            "serve.generator_lag_ms": 1e3 * percentile(fleet_run.lags,
                                                       90),
            "checkpoint.ms": 1e3 * median([m[0] for m in moves]),
            "checkpoint.bytes": median([m[2] for m in moves]),
            "restore.ms": 1e3 * median([m[1] for m in moves]),
        },
    }
    if tracer is not None:
        layers = result["layers"]
        layers.update(tracer.layer_metrics())
        layers["trace.overhead_ms"] = 1e3 * (median(times[True])
                                             - median(times[False]))
        result["tracer"] = tracer
    return result
