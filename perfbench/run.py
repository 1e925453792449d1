"""charbox benchmark: survey / amplify / certify workloads.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 15 --trace 0

With --trace 0 the run sets up the workload three times (median -> setup_s),
then drives items in a closed loop (one client, next item only after the
previous one returns) for --seconds and reports the end-to-end metrics. With
--trace 1 it runs one fixed cycle of items, each once untraced and once
traced, and reports the per-layer metrics. Every output is checked; the last
stdout line is one JSON object {correct, attempted, failed, metrics}. A
summary line before it and a file under perfbench/out/ record the
environment, the tail percentile with its sample count and, for traced runs,
every span. See perfbench/README.md.
"""

import os

# One BLAS/OpenMP thread per process, set before numpy loads: the survey pool
# supplies the parallelism.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from bench import ROOT, WORKLOADS, run_workload  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    result, record, tracers = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    record["result"] = result
    record["tracers"] = {name: tr.dump() for name, tr in tracers.items()}
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    env, detail = record["environment"], record["detail"]
    print(f"# {args.workload} seed={args.seed} commit={env['commit'][:12]} python={env['python']} "
          f"numpy={env['numpy']} nproc={env['nproc']} start={env['start_method']} "
          f"caches={env['caches']} detail={json.dumps(detail)} record={os.path.relpath(out_path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
