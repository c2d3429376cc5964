"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload contact-field --seed 1 \\
        --seconds 20 --trace 0

Prints a readable report, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
reports its per-layer metrics instead, from spans around each layer,
and writes the first traced frames to ``perfbench/out/`` as a Chrome
trace. A failed output check prints ``"correct": false`` and exits 1.
Run from the root of a checkout: the engine is imported from ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py",
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def print_layers(tracer, layers, declared):
    """The per-layer table, with each engine layer's share of the
    traced frame."""
    from tracing import FRAME, LAYERS
    frame_names = [f"{layer}.ms" for layer in LAYERS if layer != FRAME]
    frame_names.append("step.other_ms")
    frame_ms = sum(layers[name] for name in frame_names)
    print(f"per-layer metrics over {tracer.frames} traced frames"
          f" ({frame_ms:.2f} ms of spans per traced frame):")
    for metric in declared:
        name = metric["name"]
        value = layers[name]
        share = (f"  {100 * value / frame_ms:5.1f}% of frame"
                 if name in frame_names else "")
        print(f"  {name:28s} {value:14.4f} {metric['unit']}{share}")


def main(argv=None) -> int:
    with open(SPEC, encoding="utf-8") as handle:
        spec = json.load(handle)
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: {SRC}/repro not found; run from the root of"
              " a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import checks
    import engine_workload
    import serve_workload
    from measure import peak_rss_mb

    runner = (serve_workload if args.workload == "serve-30fps"
              else engine_workload)
    try:
        result = runner.run(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    except checks.CheckFailed as failure:
        print(f"CHECK FAILED: {failure}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    samples = result["samples"]
    print(f"{args.workload} seed {args.seed}: "
          + ", ".join(f"{count} {name}" for name, count in
                      samples.items()))
    if args.trace:
        declared = spec["per_layer"]
        measured = result["layers"]
        tracer = result["tracer"]
        os.makedirs(OUT, exist_ok=True)
        trace_path = os.path.join(
            OUT, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write_chrome_trace(trace_path)
        print(f"wrote {os.path.relpath(trace_path, ROOT)}")
        unknown = set(measured) - {m["name"] for m in declared}
        if unknown:
            raise KeyError(f"undeclared per-layer metrics: {unknown}")
        # A layer the workload never enters (cloth in ragdoll-pile, the
        # service in the engine scenes) spends nothing there.
        values = {m["name"]: float(measured.get(m["name"], 0.0))
                  for m in declared}
        print_layers(tracer, values, declared)
    else:
        declared = spec["end_to_end"]
        measured = dict(result["end_to_end"],
                        peak_rss_mb=peak_rss_mb())
        values = {m["name"]: float(measured[m["name"]])
                  for m in declared}
        for metric in declared:
            print(f"  {metric['name']:16s} {values[metric['name']]:12.4f}"
                  f" {metric['unit']}")
        # Reported, not bounded: on a 2-core machine the tail moved more
        # between runs than any bound of at most 25%.
        print(f"  frame time p{result['tail']:<6d} {result['tail_ms']:12.4f}"
              " ms (not a bounded metric)")
    print(f"operations: {result['attempted']} attempted,"
          f" {result['failed']} failed; all output checks passed")
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
