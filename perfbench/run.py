"""domlab benchmark: end-to-end metrics per workload, per-layer when traced.

Run from the repository root:

    python3 perfbench/run.py --workload sweep|hard-gamma \
        [--seed 20230417] [--seconds S] [--trace 0|1]

domlab is imported from ./src; nothing is installed. A run repeats rounds
for about S seconds: each round sets up several times (imports domlab
afresh and builds the inputs), then makes a timed pass over the workload
with the last set-up. Then it checks every pass's outputs against
independent references. Everything stays in one process and one thread.
The benchmark harness passes --seconds explicitly; left out, it is
BENCHMARK.json's run_seconds, the length the bounds there were set at.
Metric names and units are read from BENCHMARK.json too.

--trace 0 prints the end-to-end metrics: setup_s, the mean set-up time;
wall_s, the mean pass time; solve_p50_ms and solve_p90_ms, quantiles of
the per-call times on seed-independent family inputs, each call's time being
its mean over the run's passes; peak_rss_mb, the peak resident memory after
the first round. Times are given at a reference host speed: each pass's
time, each call's time and each round's set-up times are multiplied by the
host's speed sampled while they ran (see speed.py; for the sweep's rows,
which domlab times itself, the speed sampled over their pass). The times
as measured go to the results file and the output above the last line.
Set-ups are spread over the run, not made all at its start, so that
setup_s, like wall_s, covers the whole run instead of one second of it.

--trace 1 alternates untraced and traced passes and prints the per-layer
metrics: spans recorded around the public calls into each layer (see
spans.py), averaged per traced pass, as measured; only trace.overhead_s,
the traced pass time less the untraced one's, is at the reference speed.

The last line of output is one JSON object; a copy, with the kernel backend
and the machine's details, goes to perfbench/results/, next to the spans of
the last traced pass.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import ExitStack
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

from spans import Tracer
from speed import SpeedSampler
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SETUPS_PER_ROUND = 10
CALL_MARGIN_S = 0.25

END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# public functions a pass calls, as domlab.verify sees them, by layer
LAYER_OF = {
    "gamma_exact": "solver.gamma_exact",
    "gamma_naive": "solver.gamma_naive",
    "t0_exact": "solver.t0_exact",
    "domatic_exact": "solver.domatic_exact",
    "enumerate_domatic_partitions": "solver.enumerate",
    "enumerate_optimal_sets": "solver.enumerate",
    "all_graphs": "smallgraphs.all_graphs",
    "family_graph": "graphs.build",
    "build_graph": "graphs.build",
    "complement": "graphs.build",
    "complementary_prism": "graphs.build",
    "complete": "graphs.build",
    "cycle": "graphs.build",
    "validate_witness": "witnesses.validate",
    "write_csv": "verify.write_csv",
}
# layer -> what its SolveResult.nodes_explored counts
WORK_COUNTS = {"solver.gamma_exact": "nodes", "solver.gamma_naive": "subsets",
               "solver.domatic_exact": "nodes"}
SECTIONS = ("complete", "cycles", "complements", "bipartite", "multipartite",
            "prisms", "kjoin", "witnesses", "oracle", "properties",
            "sandwich")


def import_domlab():
    """Import domlab afresh from ./src (dropping any earlier import)."""
    dl = importlib.import_module("domlab")
    if not Path(dl.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"domlab imported from {dl.__file__}, not {SRC}")
    return dl


def set_up(workload, seed: int, tiny: bool):
    """Import domlab afresh (dropping any earlier import), build the inputs."""
    for name in [m for m in sys.modules
                 if m == "domlab" or m.startswith("domlab.")]:
        del sys.modules[name]
    gc.collect()
    t0 = time.perf_counter()
    dl = import_domlab()
    inputs = workload.make_inputs(dl, seed, tiny)
    return dl, inputs, time.perf_counter() - t0


def traced_pass(dl, workload, inputs):
    tracer = Tracer()
    wrapped = {}
    for attr, layer in LAYER_OF.items():
        counter = None
        if layer in WORK_COUNTS:
            key = f"{layer}.{WORK_COUNTS[layer]}"
            counter = (lambda key: lambda r: {key: r.nodes_explored})(key)
        wrapped[attr] = tracer.wrap(layer, getattr(dl.verify, attr), counter)
    sections = {name: tracer.wrap(f"verify.section.{name}", fn)
                for name, fn in dl.verify.SECTIONS.items()}
    workload.prepare(dl)
    gc.collect()
    with ExitStack() as stack:
        stack.enter_context(mock.patch.multiple(dl.verify, **wrapped))
        stack.enter_context(mock.patch.dict(dl.verify.SECTIONS, sections))
        result = workload.run_pass(dl, inputs, SimpleNamespace(**wrapped))
    # the root span covers what the pass's own timer covers, no more
    tracer.root("pass", result.start, result.end)
    return result, tracer


def layer_metrics(dl, tracer: Tracer) -> dict[str, float]:
    own, incl = tracer.totals()
    m = {}
    for layer in dict.fromkeys(LAYER_OF.values()):
        m[f"{layer}.calls"] = tracer.counts[f"{layer}.calls"]
        m[f"{layer}.busy_s"] = own[layer]
        if layer in WORK_COUNTS:
            work = tracer.counts[f"{layer}.{WORK_COUNTS[layer]}"]
            m[f"{layer}.{WORK_COUNTS[layer]}"] = work
            m[f"{layer}.{WORK_COUNTS[layer]}_per_s"] = \
                work / own[layer] if own[layer] > 0 else 0.0
    # all_graphs(n) generates and caches every smaller n on its way up
    cached = dl.smallgraphs.all_graphs.cache_info().currsize
    m["smallgraphs.all_graphs.graphs"] = sum(
        len(dl.smallgraphs.all_graphs(n)) for n in range(1, cached + 1))
    for name in SECTIONS:
        m[f"verify.section.{name}.busy_s"] = incl[f"verify.section.{name}"]
    m["verify.self_s"] = own["pass"] + sum(
        own[f"verify.section.{name}"] for name in SECTIONS)
    m["trace.wall_s"] = incl["pass"]
    return m


def call_speeds_of(sampler: SpeedSampler, p, pass_speed: float) -> list:
    """The host's speed for each timed call of pass p: sampled from
    CALL_MARGIN_S before the call to CALL_MARGIN_S after it, since the speed
    switches within a pass; the pass's speed where call times are unknown."""
    if p.call_starts is None:
        return [pass_speed] * len(p.latencies_ms)
    return [sampler.speed(t - CALL_MARGIN_S, t + ms / 1000 + CALL_MARGIN_S)
            for t, ms in zip(p.call_starts, p.latencies_ms)]


def measure(name: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> tuple[dict, Tracer | None]:
    workload = WORKLOADS[name]
    # untimed: a first import in a fresh checkout also compiles the sources
    set_up(workload, seed, tiny)
    setups, untraced, traced, layers = [], [], [], []
    tracer = None
    rounds = []
    with SpeedSampler() as sampler:
        start = time.perf_counter()
        while True:
            r0 = time.perf_counter()
            block = []
            for _ in range(SETUPS_PER_ROUND):
                dl, inputs, setup_s = set_up(workload, seed, tiny)
                block.append(setup_s)
            block_speed = sampler.speed(r0, time.perf_counter())
            setups += [(t, block_speed) for t in block]
            plain = SimpleNamespace(**{a: getattr(dl.verify, a)
                                       for a in LAYER_OF})
            workload.prepare(dl)
            gc.collect()
            untraced.append(workload.run_pass(dl, inputs, plain))
            if trace:
                result, tracer = traced_pass(dl, workload, inputs)
                traced.append(result)
                layers.append(layer_metrics(dl, tracer))
            rounds.append(time.perf_counter() - r0)
            if len(rounds) == 1:
                # later passes repeat the first; the outputs they keep for
                # the checks would only add the benchmark's own memory
                peak_rss_mb = \
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            # stop where the next round would end further past the budget
            # than stopping now falls short of it
            if time.perf_counter() - start + statistics.median(rounds) / 2 \
                    > seconds:
                break

    checks = workload.check(dl, inputs,
                            [p.outputs for p in untraced + traced])
    # Times at the reference speed (see speed.py). Means, not medians: the
    # host's speed flips between two levels, and a median over a run jumps
    # with the level it lands on while a mean moves with the share of each.
    speeds = [sampler.speed(p.start, p.end) for p in untraced]
    wall = statistics.fmean(p.wall * v for p, v in zip(untraced, speeds))
    call_speeds = [call_speeds_of(sampler, p, v)
                   for p, v in zip(untraced, speeds)]
    # passes repeat the same calls in the same order
    lat = [statistics.fmean(call) for call in zip(*(
        [ms * v for ms, v in zip(p.latencies_ms, vs)]
        for p, vs in zip(untraced, call_speeds)))]
    if trace:
        metrics = {k: statistics.fmean(m[k] for m in layers)
                   for k in PER_LAYER if k != "trace.overhead_s"}
        # rounds pair an untraced pass with the traced one that follows it;
        # the pair ran at different moments, so compare them at the
        # reference speed, not as measured
        metrics["trace.overhead_s"] = statistics.fmean(
            t.wall * sampler.speed(t.start, t.end) - u.wall * v
            for u, v, t in zip(untraced, speeds, traced))
        units = PER_LAYER
    else:
        metrics = {"setup_s": statistics.fmean(t * v for t, v in setups),
                   "wall_s": wall,
                   "solve_p50_ms": statistics.median(lat),
                   "solve_p90_ms": statistics.quantiles(lat, n=10)[8],
                   "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
        "details": {
            "workload": name, "seed": seed, "seconds": seconds,
            "trace": trace, "tiny": tiny,
            "backend": dl.active_backend(),
            "domlab_version": dl.__version__,
            "failed_frac": checks.failed / checks.attempted,
            "failures": checks.failures, "notes": checks.notes,
            "setups": len(setups),
            "raw_setup_s": statistics.fmean(t for t, _ in setups),
            "passes": len(untraced), "traced_passes": len(traced),
            "raw_wall_s": statistics.fmean(p.wall for p in untraced),
            "pass_walls_s": [p.wall for p in untraced],
            "pass_speeds": speeds,
            "pass_call_speeds": call_speeds,
            "speed_samples": len(sampler.speeds),
            "pass_latencies_ms": [p.latencies_ms for p in untraced],
            "latency_samples": len(lat),
            "machine": {"system": platform.system(),
                        "release": platform.release(),
                        "arch": platform.machine(),
                        "cpus": os.cpu_count(),
                        "python": platform.python_version()},
        },
    }, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "domlab" / "__init__.py").is_file():
        print(f"error: no domlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    record, tracer = measure(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    d = record["details"]
    print(f"workload={d['workload']} seed={d['seed']} backend={d['backend']} "
          f"passes={d['passes']} traced_passes={d['traced_passes']} "
          f"latency_samples={d['latency_samples']}")
    print(f"as measured: raw_setup_s={d['raw_setup_s']:.6g} "
          f"raw_wall_s={d['raw_wall_s']:.6g} "
          f"speed_samples={d['speed_samples']}")
    print(f"attempted={record['attempted']} failed={record['failed']} "
          f"failed_frac={d['failed_frac']:.6g}")
    for what in d["failures"]:
        print(f"FAILED {what}")
    for key, m in record["metrics"].items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.dump(RESULTS / f"{stem}-spans.json")
    print(json.dumps({k: record[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
