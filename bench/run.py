"""
The homquery benchmark: one workload, one process, one closed loop.

    python3 bench/run.py --workload crosscheck|decide|count-large \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports homquery from ``src/``.
Set-up (import, input generation, catalog enumeration and the library's
lazy cache fills) is timed seven times: in this process and in six child
processes that do nothing else, one after another.  The timed pass then
repeats whole rounds of the workload's operations, one after another,
until ``--seconds`` of op time have passed.  Every time is scaled to a
fixed machine speed by a reference loop timed beside it (see
``reference``).  With ``--trace 1`` a second pass runs the same rounds
with spans around homquery's public functions, and the per-layer metrics
are reported instead of the end-to-end ones.  Every output of both passes
is checked after the passes; the last line printed is the JSON result.
Result and span files go to ``bench/out/``.
"""

from __future__ import annotations

import os

# numpy must start no thread pools: set before anything imports it
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("crosscheck", "decide", "count-large")
SETUP_CHILDREN = 6
CHILD_TIMEOUT_S = 120

# On a shared host the machine's speed moves by 20% within seconds and by
# up to 1.8x between stretches of minutes (README.md, "Machine"), and
# homquery's ops slow with it.  So every time is reported at a nominal
# speed: the raw time times REF_NOMINAL_S over the time the reference loop
# took beside it.
REF_ITERATIONS = 3000
REF_NOMINAL_S = 0.0015    # the reference loop's time at the nominal speed
REF_EVERY_S = 0.025       # op time between two reference samples
REF_WINDOW = 2            # samples on either side that judge a block's speed
SETUP_REF_SAMPLES = 3     # reference samples between two set-up steps


def reference() -> int:
    """
    The speed reference: a fixed pure-Python loop of the work homquery's
    own is made of (tuple building, dict updates, integer arithmetic).  It
    never calls homquery, so no change to the library moves it.
    """
    counts: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(REF_ITERATIONS):
        key = (i & 255, i * 7 % 13)
        counts[key] = counts.get(key, 0) + 1
        acc += len(counts) & 3
    return acc


def time_reference() -> float:
    t = perf_counter()
    reference()
    return perf_counter() - t


def reference_samples() -> list[float]:
    return [time_reference() for _ in range(SETUP_REF_SAMPLES)]


def reference_scale(samples) -> float:
    "The factor that takes a time measured beside these samples to the nominal speed."
    return REF_NOMINAL_S / statistics.median(samples)


def setup(workload: str, seed: int, scaled: bool = False):
    """
    Everything before the timed pass; returns (phase seconds, operations).
    With `scaled`, reference samples are taken between the steps, and each
    step is scaled by the samples on either side of it, so a change of the
    machine's speed during set-up stays inside the step where it happened.
    """
    phases = dict.fromkeys(("import_s", "catalog.enumerate_s",
                            "algorithms.cache_fill_s", "generate_s"), 0.0)
    if scaled:
        time_reference()  # the first call pays for warming up
    boundary = [reference_samples()] if scaled else []

    def step(phase, fn):
        t = perf_counter()
        out = fn()
        elapsed = perf_counter() - t
        if scaled:
            boundary.append(reference_samples())
            elapsed *= reference_scale(boundary[-2] + boundary[-1])
        phases[phase] += elapsed
        return out

    def load():
        import homquery  # noqa: F401  (the import is part of what is timed)
        from homquery import algorithms, catalog
        from homquery.structures import DIGRAPH_SIG
        return algorithms, catalog, DIGRAPH_SIG

    algorithms, catalog, digraph_sig = step("import_s", load)
    step("catalog.enumerate_s", lambda: catalog.enumerate_digraphs_upto(4))
    if workload == "decide":
        # the lazy caches lovasz (sizes 1-3) and right2q (sizes 1-2) fill,
        # called exactly as they call them: lru_cache keys on the call form
        for n in (1, 2, 3):
            step("algorithms.cache_fill_s", lambda n=n: algorithms._candidate_vectors(n))
        for n in (1, 2):
            step("algorithms.cache_fill_s",
                 lambda n=n: algorithms.brute_force_distinguisher(n, digraph_sig))
    ops = step("generate_s", lambda: importlib.import_module("workloads")
               .BUILDERS[workload](seed))
    phases["setup_s"] = sum(phases.values())
    return phases, ops


def setup_in_child(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@dataclass
class Failure:
    error: str


@dataclass
class Pass:
    rounds: int = 0
    wall_s: float = 0.0
    op_s: list[float] = field(default_factory=list)       # raw, in run order
    op_block: list[int] = field(default_factory=list)     # each op's block
    ref_s: list[float] = field(default_factory=list)      # before each block, and at the end
    outputs: list[list] = field(default_factory=list)     # [round][op]

    def block_scales(self) -> list[float]:
        "Block b lies between reference samples b and b+1; its scale uses REF_WINDOW on each side."
        return [reference_scale(self.ref_s[max(0, b - REF_WINDOW + 1):b + REF_WINDOW + 1])
                for b in range(len(self.ref_s) - 1)]

    def scaled_op_s(self) -> list[float]:
        "Each op's time at the nominal speed, in run order."
        scales = self.block_scales()
        return [t * scales[b] for t, b in zip(self.op_s, self.op_block)]

    def median_scale(self) -> float:
        return statistics.median(self.block_scales())


def run_pass(ops, seconds=None, rounds=None, tracer=None) -> Pass:
    """
    Whole rounds until `seconds` of op time have passed, or exactly `rounds`
    rounds.  A reference sample is taken whenever REF_EVERY_S of op time has
    passed since the last one, and after the last op.
    """
    result = Pass()
    time_reference()
    result.ref_s.append(time_reference())
    start = perf_counter()
    op_total = block_total = 0.0
    while True:
        outputs = []
        for op in ops:
            t = perf_counter()
            try:
                out = tracer.call(op.kind, op.run) if tracer else op.run()
            except Exception:
                out = Failure(traceback.format_exc())
            elapsed = perf_counter() - t
            result.op_s.append(elapsed)
            result.op_block.append(len(result.ref_s) - 1)
            outputs.append(out)
            op_total += elapsed
            block_total += elapsed
            if block_total >= REF_EVERY_S:
                result.ref_s.append(time_reference())
                block_total = 0.0
        result.outputs.append(outputs)
        done = (len(result.outputs) >= rounds if rounds is not None
                else op_total >= seconds)
        if done:
            break
    if block_total:
        result.ref_s.append(time_reference())
    result.wall_s = perf_counter() - start
    result.rounds = len(result.outputs)
    return result


def check_outputs(ops, passes) -> tuple[int, int, list[str]]:
    """
    Check every output of every pass; equal outputs of one op are checked
    once.  Returns (attempted, failed, one line per distinct failure).
    """
    attempted = failed = 0
    problems = []
    for i, op in enumerate(ops):
        verdicts: list[tuple[object, bool]] = []
        for p in passes:
            for outputs in p.outputs:
                out = outputs[i]
                attempted += 1
                if isinstance(out, Failure):
                    failed += 1
                    problems.append(f"{op.kind}: raised\n{out.error}")
                    continue
                ok = next((v for seen, v in verdicts if seen == out), None)
                if ok is None:
                    try:
                        ok = bool(op.check(out))
                    except Exception:
                        ok = False
                        problems.append(f"{op.kind}: check raised\n{traceback.format_exc()}")
                    verdicts.append((out, ok))
                    if not ok:
                        problems.append(f"{op.kind}: wrong output {out!r}")
                if not ok:
                    failed += 1
    return attempted, failed, problems


def median_round_s(p: Pass) -> float:
    "The median time of a round at the nominal speed."
    op_s = p.scaled_op_s()
    n = len(op_s) // p.rounds
    return statistics.median(sum(op_s[r * n:(r + 1) * n]) for r in range(p.rounds))


def end_to_end_metrics(untraced: Pass, setup_samples, peak_rss_mb: float) -> dict:
    """
    Times at the nominal speed.  Medians damp what the scaling leaves:
    throughput is ops per round over the median round time, and each op's
    time is the median of its repetitions before p50 and p90 are taken over
    the ops of a round.
    """
    op_s = untraced.scaled_op_s()
    n = len(op_s) // untraced.rounds
    op_ms = [1000 * statistics.median(op_s[i::n]) for i in range(n)]
    return {
        "ops_per_s": (n / median_round_s(untraced), "1/s"),
        "op_ms_p50": (statistics.median(op_ms), "ms"),
        "op_ms_p90": (statistics.quantiles(op_ms, n=10)[-1], "ms"),
        "setup_s": (statistics.median(s["setup_s"] for s in setup_samples), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer_metrics(tracer, untraced: Pass, traced: Pass, setup_samples) -> dict:
    """
    Counts and seconds per round (one pass over the op list), and rates.
    Seconds are at the nominal speed, by the traced pass's median scale.
    """
    layers = tracer.layers()
    rounds = traced.rounds
    scale = traced.median_scale()

    def calls(name):
        return layers[name]["calls"] / rounds if name in layers else 0

    def self_s(name):
        return scale * layers[name]["self_s"] / rounds if name in layers else 0.0

    def rate(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    def setup_phase(name):
        return statistics.median(s[name] for s in setup_samples)

    work = tracer.work
    datalog = layers.get("datalog.evaluate", {"calls": 0, "total_s": 0.0})
    query_calls = layers["query"]["calls"] if "query" in layers else 0
    return {
        "oracle.hom_count.calls": (calls("oracle.hom_count"), "count"),
        "oracle.hom_count.self_s": (self_s("oracle.hom_count"), "s"),
        "oracle.maps": (work["oracle.hom_count"] / rounds, "count"),
        "oracle.maps_per_s": (rate(work["oracle.hom_count"] / rounds,
                                   self_s("oracle.hom_count")), "1/s"),
        "oracle.gamma.self_s": (self_s("oracle.gamma"), "s"),
        "datalog.evaluate.calls": (calls("datalog.evaluate"), "count"),
        "datalog.evaluate.self_s": (self_s("datalog.evaluate"), "s"),
        "datalog.ms_per_eval": (rate(1000 * scale * datalog["total_s"], datalog["calls"]),
                                "ms"),
        "analysis.gamma.calls": (calls("analysis.gamma"), "count"),
        "analysis.gamma.self_s": (self_s("analysis.gamma"), "s"),
        "homs.formula.self_s": (self_s("homs.formula"), "s"),
        "homs.hom_count.calls": (calls("homs.hom_count"), "count"),
        "homs.hom_count.self_s": (self_s("homs.hom_count"), "s"),
        "homs.homs_per_s": (rate(work["homs.hom_count"] / rounds,
                                 self_s("homs.hom_count")), "1/s"),
        "homs.find_hom.calls": (calls("homs.find_hom"), "count"),
        "homs.find_hom.self_s": (self_s("homs.find_hom"), "s"),
        "query.probes": (work["query"] / rounds, "count"),
        "query.probes_per_decision": (rate(work["query"], query_calls), "count"),
        "query.self_s": (self_s("query"), "s"),
        "registry.run_registered.self_s": (self_s("registry.run_registered"), "s"),
        "analysis.core.calls": (calls("analysis.core"), "count"),
        "analysis.core.self_s": (self_s("analysis.core"), "s"),
        "structures.canonical_form.calls": (calls("structures.canonical_form"), "count"),
        "structures.canonical_form.self_s": (self_s("structures.canonical_form"), "s"),
        "catalog.enumerate_s": (setup_phase("catalog.enumerate_s"), "s"),
        "algorithms.cache_fill_s": (setup_phase("algorithms.cache_fill_s"), "s"),
        "trace.overhead_s": (median_round_s(traced) - median_round_s(untraced), "s"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "homquery" / "__init__.py").is_file():
        print(f"error: no homquery package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        phases, _ = setup(args.workload, args.seed, scaled=True)
        print(json.dumps(phases))
        return 0

    phases, ops = setup(args.workload, args.seed, scaled=True)
    setup_samples = [phases] + [setup_in_child(args.workload, args.seed)
                                for _ in range(SETUP_CHILDREN)]

    untraced = run_pass(ops, seconds=args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    passes = [untraced]
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(ops, rounds=untraced.rounds, tracer=tracer)
        finally:
            tracer.uninstall()
        passes.append(traced)
        metrics = per_layer_metrics(tracer, untraced, traced, setup_samples)
    else:
        metrics = end_to_end_metrics(untraced, setup_samples, peak_rss_mb)

    attempted, failed, problems = check_outputs(ops, passes)
    for line in dict.fromkeys(problems):
        print(line, file=sys.stderr)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "ops_per_round": len(ops), "rounds": untraced.rounds,
        "untraced_wall_s": untraced.wall_s,
        "untraced_median_scale": untraced.median_scale(),
        "setup_samples": setup_samples,
        "result": result,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}.spans.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
