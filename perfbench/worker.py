"""One workload in a fresh process: the three stages of
``hofbutter butterfly --check --format ppm``, repeated in whole rounds.

Usage (normally started by run.py):

    python3 perfbench/worker.py --workload NAME --seconds S --trace 0|1 --out DIR
    python3 perfbench/worker.py --workload NAME --probe-setup

A round runs every sweep of the workload through

1. ``sweep_to_jsonl``,
2. ``render_jsonl`` (the PPM bytes are written to disk, as the CLI does),
3. ``read_records_jsonl`` plus ``detect_coloring_errors``.

Rounds repeat until ``S`` seconds have passed; the last one runs to its
end.  Before every round and after the last, calibrate.PASSES passes of
the calibration kernel are timed (see calibrate.py).  With ``--trace 1``
untraced and traced rounds alternate, so the tracing overhead is
measured in the same process.  Outputs of a round
whose bytes match an earlier round's are deleted; the rest stay in DIR
for run.py to check, next to ``worker.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
from time import perf_counter, process_time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import WORKLOADS  # noqa: E402  (no hofbutter import)


def set_up(workload: str):
    """Import the program and build the sweep configurations; timed."""
    t0 = perf_counter()
    from hofbutter import ButterflyConfig
    configs = [ButterflyConfig(**sweep["config"], jobs=1)
               for sweep in WORKLOADS[workload]]
    return configs, perf_counter() - t0


def _digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def _num(x):
    return None if x in (float("inf"), float("-inf")) else x


def _record(rec) -> list:
    return [rec.p, rec.q, rec.j, _num(rec.lo), _num(rec.hi), rec.closed, rec.chern]


def run_round(configs, stem: str, tracer=None) -> dict:
    from hofbutter import (ButterflyDiagram, detect_coloring_errors,
                           read_records_jsonl, render_jsonl, sweep_to_jsonl)

    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    stage = {"sweep_s": 0.0, "render_s": 0.0, "audit_s": 0.0}
    sweeps = []
    cpu0 = process_time()
    for i, cfg in enumerate(configs):
        jsonl, ppm = f"{stem}_{i}.jsonl", f"{stem}_{i}.ppm"
        t0 = perf_counter()
        with span("butterfly.sweep"):
            n_records, failures = sweep_to_jsonl(cfg, jsonl)
        t1 = perf_counter()
        with span("render.render_jsonl"):
            image = render_jsonl(jsonl, cfg)
        with open(ppm, "wb") as fh:
            fh.write(image)
        t2 = perf_counter()
        with span("butterfly.read_records_jsonl"):
            records = read_records_jsonl(jsonl)
        with span("butterfly.detect_coloring_errors"):
            report = detect_coloring_errors(
                ButterflyDiagram(cfg, tuple(records), tuple(failures)))
        t3 = perf_counter()
        stage["sweep_s"] += t1 - t0
        stage["render_s"] += t2 - t1
        stage["audit_s"] += t3 - t2
        del records
        sweeps.append({
            "jsonl": jsonl, "ppm": ppm, "records": n_records,
            "failures": [list(f) for f in failures],
            "audit": [[_record(pair.rec_a), _record(pair.rec_b)] for pair in report],
            "ppm_bytes": len(image),
        })
    cpu = process_time() - cpu0
    wall = stage["sweep_s"] + stage["render_s"] + stage["audit_s"]
    return {"wall_s": wall, "cpu_s": cpu, **stage, "sweeps": sweeps}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--probe-setup", action="store_true",
                    help="time the set-up alone and print it")
    args = ap.parse_args(argv)

    configs, setup_s = set_up(args.workload)
    if args.probe_setup:
        import calibrate
        print(json.dumps({"setup_s": setup_s, "calibration": [
            calibrate.kernel() for _ in range(calibrate.PASSES)]}))
        return 0

    import calibrate
    import tracing

    os.makedirs(args.out, exist_ok=True)
    calibration = []
    rounds = []
    kept = {}            # digest -> index of the round whose files are kept
    deadline = perf_counter() + args.seconds
    while True:
        k = len(rounds)
        traced = bool(args.trace) and k % 2 == 1
        calibration += [calibrate.kernel() for _ in range(calibrate.PASSES)]
        tracer = tracing.Tracer() if traced else None
        if tracer:
            tracer.install()
        try:
            rnd = run_round(configs, os.path.join(args.out, f"r{k}"), tracer)
        finally:
            if tracer:
                tracer.uninstall()
        files = [p for s in rnd["sweeps"] for p in (s["jsonl"], s["ppm"])]
        digest = _digest(*files) + hashlib.sha256(json.dumps(
            [s["audit"] for s in rnd["sweeps"]]).encode()).hexdigest()
        rnd["digest"] = digest
        if digest in kept:
            rnd["same_as"] = kept[digest]
            for path in files:
                os.remove(path)
        else:
            kept[digest] = k
            rnd["same_as"] = k
        rnd["traced"] = traced
        if tracer:
            rnd["trace"] = tracer.totals()
            rnd["fhs_fluxes"] = sorted(tracer.fhs_fluxes)
        rounds.append(rnd)
        done = perf_counter() >= deadline
        if done and (not args.trace or len(rounds) >= 2):
            break

    calibration += [calibrate.kernel() for _ in range(calibrate.PASSES)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(os.path.join(args.out, "worker.json"), "w") as fh:
        json.dump({"setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
                   "calibration": calibration, "rounds": rounds}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
