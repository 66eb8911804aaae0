"""
Self-test of the benchmark's output checks: for each workload, one round of
real outputs must all pass, and the same round with one deliberately wrong
answer must count exactly that answer as failed.

    python3 bench/selftest.py

Exits 0 when every workload behaves so, 1 otherwise.
"""

from __future__ import annotations

import sys

import run


def _wrong(kind: str, out):
    "A wrong answer of the same form as the real output of an op of this kind."
    if kind == "crosscheck.digraph":
        formula, *rest = out
        return ((formula[0] + 1,) + formula[1:], *rest)
    if kind == "decide.cycle2q":
        verdict, queries = out
        return not verdict, queries
    if kind == "count-large.hom_count":
        return out + 1
    raise ValueError(kind)


TAMPERED_KIND = {
    "crosscheck": "crosscheck.digraph",
    "decide": "decide.cycle2q",
    "count-large": "count-large.hom_count",
}


def check_workload(workload: str, seed: int = 0) -> bool:
    _, ops = run.setup(workload, seed)
    honest = run.run_pass(ops, rounds=1)
    attempted, failed, problems = run.check_outputs(ops, [honest])
    if failed or attempted != len(ops):
        print(f"{workload}: honest round failed {failed} of {attempted}", *problems,
              sep="\n", file=sys.stderr)
        return False

    target = next(i for i, op in enumerate(ops) if op.kind == TAMPERED_KIND[workload])
    tampered = run.Pass(rounds=1, outputs=[list(honest.outputs[0])])
    tampered.outputs[0][target] = _wrong(ops[target].kind, honest.outputs[0][target])
    attempted, failed, _ = run.check_outputs(ops, [tampered])
    ok = attempted == len(ops) and failed == 1
    print(f"{workload}: {len(ops)} ops, wrong {ops[target].kind} answer "
          f"{'counted as failed' if ok else f'NOT caught (failed={failed})'}")
    return ok


def main() -> int:
    if not (run.SRC / "homquery" / "__init__.py").is_file():
        print(f"error: no homquery package under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    results = [check_workload(w) for w in run.WORKLOADS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
