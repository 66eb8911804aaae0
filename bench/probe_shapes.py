"""
How much of a workload's round repeats itself, for claims about caches.

    python3 bench/probe_shapes.py --workload decide --seed 1

Runs one round and records every hom probe: each call of homs.hom_count,
homs.find_hom and oracle.oracle_hom_count, as (probe structure, target
structure).  Prints, per layer, the number of probes and the share whose
probe structure, (|A|, |B|) size pair, or whole (probe, target) pair was
already seen earlier in the same round.  Later rounds of a timed pass
replay the first, so there every probe repeats.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict

import run
import tracing


def _key(s):
    return (s.signature.relations, s.domain_size,
            tuple(tuple(sorted(s.relations[n])) for n in s.signature.names))


def probe_shares(workload: str, seed: int) -> dict[str, dict[str, float]]:
    _, ops = run.setup(workload, seed)
    from homquery import homs, oracle

    calls = defaultdict(list)

    def recorder(name, fn):
        def wrapper(a, b, *args, **kwargs):
            calls[name].append((_key(a), _key(b), (a.domain_size, b.domain_size)))
            return fn(a, b, *args, **kwargs)
        return wrapper

    patched = tracing.patch_everywhere([
        (homs.hom_count, recorder("homs.hom_count", homs.hom_count)),
        (homs.find_hom, recorder("homs.find_hom", homs.find_hom)),
        (oracle.oracle_hom_count, recorder("oracle.hom_count", oracle.oracle_hom_count)),
    ])
    try:
        run.run_pass(ops, rounds=1)
    finally:
        tracing.unpatch(patched)

    out = {}
    for name, seen_calls in sorted(calls.items()):
        shapes, sizes, pairs = set(), set(), set()
        repeated = {"shape": 0, "sizes": 0, "pair": 0}
        for probe, target, size in seen_calls:
            for label, seen, key in (("shape", shapes, probe), ("sizes", sizes, size),
                                     ("pair", pairs, (probe, target))):
                if key in seen:
                    repeated[label] += 1
                seen.add(key)
        total = len(seen_calls)
        out[name] = {"probes": total, **{k: v / total for k, v in repeated.items()}}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    print(f"{'layer':18s} {'probes':>7s} {'shape':>7s} {'|A|,|B|':>8s} {'pair':>7s}")
    for name, row in probe_shares(args.workload, args.seed).items():
        print(f"{name:18s} {row['probes']:7d} {row['shape']:7.1%} "
              f"{row['sizes']:8.1%} {row['pair']:7.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
