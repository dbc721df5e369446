#!/usr/bin/env python3
"""Every metric of every workload, in one command.

    python3 bench/report.py [--seed 1] [--seconds 20]

Runs ``run.py`` on each workload of ``BENCHMARK.json``, untraced and
traced, and prints each metric as ``workload name value unit`` after the
run record (commit, Python and numpy versions, nproc, seed, sample
counts).  Writes the combined record to ``bench/out/report-seed<N>.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run


def main(argv=None):
    p = argparse.ArgumentParser(description="run every workload in both modes")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    args = p.parse_args(argv)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    combined = {}
    for wl in spec["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run([*spec["command"], "--workload", wl["name"],
                                   "--seed", str(args.seed), "--seconds", str(seconds),
                                   "--trace", str(trace)],
                                  cwd=run.ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(f"{wl['name']} --trace {trace} failed:\n{proc.stderr}", file=sys.stderr)
                return 1
            record = json.loads((run.OUT / f"{wl['name']}-seed{args.seed}-trace{trace}.json")
                                .read_text(encoding="utf-8"))
            combined.setdefault(wl["name"], {})[f"trace{trace}"] = record
            env = record["environment"]
            print(f"# {wl['name']} trace={trace} commit={env['commit']} "
                  f"python={env['python']} numpy={env['numpy']} nproc={env['nproc']} "
                  f"seed={env['seed']} samples={record['samples']} rounds={record['rounds']} "
                  f"failed={len(record['failing_inputs'])}", flush=True)
            for name, m in record["metrics"].items():
                note = f"  ({record['notes'][name]})" if name in record["notes"] else ""
                print(f"{wl['name']} {name} {m['value']:.6g} {m['unit']}{note}", flush=True)
    path = run.OUT / f"report-seed{args.seed}.json"
    path.write_text(json.dumps(combined, indent=1) + "\n", encoding="utf-8")
    print(f"# record {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
