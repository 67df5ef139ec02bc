"""Benchmark of the hofbutter butterfly pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``; nothing is installed or built).  The command

1. times the set-up (import of hofbutter plus the sweep configurations)
   in SETUP_PROBES fresh processes and keeps the median, each scaled to
   nominal machine speed by calibration passes made right after it;
2. runs the workload in one fresh worker process (``jobs=1``) for S
   seconds of whole rounds (see worker.py), each round scaled to nominal
   machine speed by the calibration passes around it (calibrate.py);
3. checks every distinct output against independent references
   (checks.py) and runs a self-test that corrupts outputs on purpose;
4. prints, as the last line of standard output, one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``: the
   end-to-end metrics with ``--trace 0``, the per-layer metrics of a
   traced run with ``--trace 1``.

Failed fluxes are listed on standard error with the known fault they
are due to.  Outputs go to ``perfbench/out/`` and are removed after the
checks, except the summary ``perfbench/out/<workload>.json``.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import calibrate
import checks
import reference
import tracing
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 7
TIME_LIMIT_S = 170.0

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("records_per_s", "1/s"),
              ("peak_rss_mb", "MB"), ("verified_gaps", "count")]


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _python(*args, timeout):
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)


def measure_setup(workload: str) -> list[float]:
    """Set-up time of SETUP_PROBES fresh processes, after one warm-up
    that fills the bytecode cache."""
    samples = []
    for i in range(SETUP_PROBES + 1):
        proc = _python(os.path.join(HERE, "worker.py"), "--workload", workload,
                       "--probe-setup", timeout=60)
        if proc.returncode:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        if i:
            samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples


def check_group(workload, rnd, stem, table, seed):
    """Check the outputs of one round; returns per-sweep results."""
    results = []
    for i, (sweep, out) in enumerate(zip(WORKLOADS[workload], rnd["sweeps"])):
        check = checks.SweepCheck(sweep["config"], sweep["model"], table, seed + i)
        by_flux = checks.load_records(f"{stem}_{i}.jsonl")
        failed, verified = check.check_fluxes(by_flux)
        with open(f"{stem}_{i}.ppm", "rb") as fh:
            image = fh.read()
        palette = check.palette(by_flux)
        expected = check.expected_audit(by_flux)
        results.append({
            "check": check, "by_flux": by_flux, "image": image, "palette": palette,
            "audit": out["audit"], "expected": expected,
            "failed": failed, "verified": verified,
            "image_ok": check.check_image(image, palette),
            "audit_ok": check.check_audit(out["audit"], by_flux, expected),
            "stray": sorted(set(by_flux) - set(check.fluxes)),
            "jsonl_bytes": os.path.getsize(f"{stem}_{i}.jsonl"),
        })
    return results


def self_test(results, seed) -> dict:
    """Corrupt outputs on purpose; every check must catch its corruption."""
    rng = np.random.default_rng([seed, 1])
    res = next(r for r in results if r["check"].ref)
    check, by_flux = res["check"], res["by_flux"]
    good = [f for f in check.fluxes if f not in res["failed"] and f in by_flux]
    outcome = {}

    # sigma shifted by q on a gap the reference verifies
    sites = [(p, q, r["j"]) for p, q in good for r in by_flux[(p, q)][1:q]
             if r["chern"] is not None and not r["closed"]
             and str(r["j"]) in check.ref.get(f"{p}/{q}", {}).get("sigma", {})]
    if sites:
        p, q, j = sites[rng.integers(len(sites))]
        recs = copy.deepcopy(by_flux[(p, q)])
        recs[j]["chern"] += q
        bad, _ = check.check_flux(p, q, recs, by_flux, rng)
        outcome[f"sigma+q at {p}/{q} j={j}"] = "reference" in bad
    else:
        log("self-test: no verified gap to corrupt")

    # one band edge pulled in
    sites = [(p, q, n) for p, q in good for n in range(1, q + 1)
             if by_flux[(p, q)][n]["lo"] - by_flux[(p, q)][n - 1]["hi"] > 1e-6]
    if sites:
        p, q, n = sites[rng.integers(len(sites))]
        recs = copy.deepcopy(by_flux[(p, q)])
        width = recs[n]["lo"] - recs[n - 1]["hi"]
        recs[n]["lo"] -= min(0.25 * width, 1e-3)
        bad, _ = check.check_flux(p, q, recs, by_flux, rng)
        outcome[f"band {n} top of {p}/{q} pulled in"] = "bands" in bad
    else:
        log("self-test: no passing flux with a band to pull in")

    # one flipped pixel
    image = bytearray(res["image"])
    header = len(image) - check.cfg.get("mu_bins", 1024) * check.cfg.get("height", 1024) * 3
    px = int(rng.integers((len(image) - header) // 3))
    for c in range(3):
        image[header + 3 * px + c] ^= 0xFF
    outcome[f"pixel {px} flipped"] = not check.check_image(bytes(image), res["palette"])

    # one audit pair dropped, or a false one added to an empty report
    audit = list(res["audit"])
    if audit:
        del audit[int(rng.integers(len(audit)))]
        what = "audit pair dropped"
    else:
        p, q = check.fluxes[0]
        audit = [[[p, q, 0, None, by_flux[(p, q)][0]["hi"], False, 0]] * 2]
        what = "false audit pair added"
    outcome[what] = not check.check_audit(audit, by_flux, res["expected"])
    return outcome


def layer_metrics(rnd, results, overhead) -> dict:
    """Per-layer metrics of one traced round: span totals and counters
    under their own names, plus those derived from the outputs."""
    t = rnd["trace"]
    fhs = {tuple(f) for f in rnd["fhs_fluxes"]}
    colored = gray = uncertified = 0
    for res in results:
        for (p, q), recs in res["by_flux"].items():
            for r in recs[1:q]:
                if r["closed"]:
                    continue
                if r["chern"] is None:
                    gray += 1
                    uncertified += (p, q) in fhs
                else:
                    colored += 1
    scan = t.get("spectrum.scan.calls", 0)
    derived = {
        "spectrum.edge_route.closed_form": t.get("spectrum.band_edge_kpoints.calls", 0) - scan,
        "spectrum.edge_route.scan": scan,
        "spectrum.dense_fallbacks": t.get("spectrum.compute_bands_dense.calls", 0),
        "spectrum.containment_failures": sum(
            1 for res in results for bad in res["failed"].values()
            if bad & {"bands", "containment"}),
        "diophantine.window_builds": t.get("diophantine.window.calls", 0),
        "chern.uncertified_gaps": uncertified,
        "butterfly.fluxes": sum(len(res["check"].fluxes) for res in results),
        "butterfly.records": sum(s["records"] for s in rnd["sweeps"]),
        "butterfly.jsonl_bytes": sum(res["jsonl_bytes"] for res in results),
        "butterfly.inconsistent_pairs": sum(len(s["audit"]) for s in rnd["sweeps"]),
        "butterfly.colored_gaps": colored,
        "butterfly.gray_gaps": gray,
        "render.ppm_bytes": sum(s["ppm_bytes"] for s in rnd["sweeps"]),
        "process.cpu_s": rnd["cpu_s"],
        "trace.overhead_s": overhead,
    }
    return {name: derived[name] if name in derived else t.get(name, 0)
            for name, _, _ in tracing.PER_LAYER}


def log_failures(checked, outcome) -> None:
    for g, results in checked.items():
        for i, res in enumerate(results):
            for (p, q), bad in sorted(res["failed"].items(), key=lambda x: (x[0][1], x[0][0])):
                cause = checks.attribute(res["check"], p, q, bad, res["by_flux"].get((p, q)))
                log(f"round {g} sweep {i}: flux {p}/{q} failed "
                    f"{','.join(sorted(bad))} [{cause}]")
            if not res["image_ok"]:
                log(f"round {g} sweep {i}: image check failed")
            if not res["audit_ok"]:
                log(f"round {g} sweep {i}: audit check failed")
            if res["stray"]:
                log(f"round {g} sweep {i}: records of unexpected fluxes {res['stray']}")
    for what, caught in outcome.items():
        log(f"self-test: {what}: {'caught' if caught else 'MISSED'}")


def end_to_end(setup, worker, rounds, first) -> dict:
    """The end-to-end metrics, with times at the nominal machine speed of
    calibrate.py (each round scaled by the kernel passes around it)."""
    cal = worker["calibration"]
    wall = calibrate.nominal([r["wall_s"] for r in rounds], cal)
    sweep = calibrate.nominal([r["sweep_s"] for r in rounds], cal)
    records = [sum(s["records"] for s in r["sweeps"]) for r in rounds]
    return {
        "setup_s": statistics.median(
            s["setup_s"] * calibrate.NOMINAL_S / statistics.median(s["calibration"])
            for s in setup),
        "wall_s": statistics.median(wall),
        "records_per_s": statistics.median(n / t for n, t in zip(records, sweep)),
        "peak_rss_mb": worker["peak_rss_mb"],
        "verified_gaps": sum(res["verified"] for res in first),
    }


def per_layer(rounds, plain, checked) -> dict:
    """Medians over the traced rounds of the per-layer metrics."""
    traced = [r for r in rounds if r["traced"]]
    overhead = statistics.median(r["wall_s"] for r in traced) - \
        statistics.median(r["wall_s"] for r in plain)
    per_round = [layer_metrics(r, checked[r["same_as"]], overhead) for r in traced]
    return {name: statistics.median(m[name] for m in per_round)
            for name, _, _ in tracing.PER_LAYER}


def run(args, run_dir) -> dict:
    with open(reference.TABLE_PATH) as fh:
        table = json.load(fh)
    started = time.monotonic()
    setup = measure_setup(args.workload)
    budget = TIME_LIMIT_S - (time.monotonic() - started) - 20.0
    proc = _python(os.path.join(HERE, "worker.py"), "--workload", args.workload,
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--out", run_dir, timeout=budget)
    if proc.returncode:
        raise RuntimeError(f"worker exited with code {proc.returncode}:\n{proc.stderr}")
    with open(os.path.join(run_dir, "worker.json")) as fh:
        worker = json.load(fh)
    rounds = worker["rounds"]

    # check each distinct output once; rounds that repeat it share its result
    checked = {}
    for rnd in rounds:
        g = rnd["same_as"]
        if g not in checked:
            checked[g] = check_group(args.workload, rounds[g],
                                     os.path.join(run_dir, f"r{g}"), table, args.seed)
    attempted = failed = 0
    for rnd in rounds:
        for res in checked[rnd["same_as"]]:
            attempted += len(res["check"].fluxes) + 2
            failed += len(res["failed"]) + (not res["image_ok"]) + (not res["audit_ok"])
    first = checked[rounds[0]["same_as"]]
    outcome = self_test(first, args.seed)
    correct = all(outcome.values()) and not any(
        res["stray"] for results in checked.values() for res in results)
    log_failures(checked, outcome)

    plain = [r for r in rounds if not r["traced"]]
    log(f"{len(rounds)} rounds; raw wall_s " + " ".join(f"{r['wall_s']:.3f}" for r in plain)
        + f"; calibration median {statistics.median(worker['calibration']):.4f} s")
    if args.trace:
        values = per_layer(rounds, plain, checked)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        values = end_to_end(setup, worker, rounds, first)
        units = dict(END_TO_END)
    result = {"correct": bool(correct), "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    summary = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                   setup_samples=setup, calibration=worker["calibration"],
                   rounds=[{k: r[k] for k in ("wall_s", "sweep_s", "render_s",
                                               "audit_s", "cpu_s", "traced")}
                           for r in rounds],
                   failed_fluxes=sorted({f"{p}/{q}" for res in first
                                         for (p, q) in res["failed"]}),
                   self_test=outcome)
    with open(os.path.join(OUT, f"{args.workload}.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="hofbutter pipeline benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hofbutter", "__init__.py")):
        log(f"no hofbutter sources under {os.path.join(ROOT, 'src')}; "
            "run from the root of a source checkout")
        return 2
    if not os.path.isfile(reference.TABLE_PATH):
        log(f"missing {reference.TABLE_PATH}; run python3 perfbench/reference.py")
        return 2
    run_dir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        result = run(args, run_dir)
    except subprocess.TimeoutExpired:
        log("time limit reached; the worker was stopped")
        return 3
    except RuntimeError as exc:
        log(str(exc))
        return 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
