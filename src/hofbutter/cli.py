"""Command-line interface: spectrum | chern | dioph | butterfly | verify.

Every flag can also be supplied through a ``key = value`` config file
(``--config``); explicit command-line flags win over file values.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .butterfly import (
    PHI_D_SYMMETRIC,
    ButterflyConfig,
    ButterflyDiagram,
    detect_coloring_errors,
    read_records_jsonl,
    sweep_to_jsonl,
)
from .chern import (
    GapClosed,
    band_chern_transport,
    gap_chern,
    gap_residue_transport,
)
from .diophantine import chain_assign, resolve_in_window, solve_residue, square_window, triangular_window
from .magnetic_algebra import Flux, HofstadterModel
from .spectrum import (
    compute_bands_or_dense,
    compute_gaps,
    gaps_to_csv,
    spectrum_to_json,
)
from .render import render_jsonl
from .verify import SUITES, run_suites


def _load_config_file(path: str) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment."""
    values = {}
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SystemExit(f"{path}:{ln}: expected 'key = value'")
            key, raw = (s.strip() for s in line.split("=", 1))
            values[key.replace("-", "_")] = raw
    return values


def _coerce(parser_defaults, key, raw):
    ref = parser_defaults.get(key)
    if isinstance(ref, bool):
        return raw.lower() in ("1", "true", "yes", "on")
    if isinstance(ref, int):
        return int(raw)
    if isinstance(ref, float):
        return float(raw)
    return raw


def _model_from(args) -> HofstadterModel:
    return HofstadterModel(Flux(args.p, args.q), args.phi_d,
                           args.t1, args.t2, args.t3)


def _add_model_flags(sp):
    sp.add_argument("--p", type=int, required=True, help="flux numerator")
    sp.add_argument("--q", type=int, required=True, help="flux denominator")
    sp.add_argument("--phi-d", type=float, default=PHI_D_SYMMETRIC,
                    help="down-triangle flux phase (radians)")
    sp.add_argument("--t1", type=float, default=1.0)
    sp.add_argument("--t2", type=float, default=1.0)
    sp.add_argument("--t3", type=float, default=1.0)


def _write_out(text: str, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def cmd_spectrum(args) -> int:
    model = _model_from(args)
    spec = compute_bands_or_dense(model)
    gaps = compute_gaps(spec, args.eps_gap)
    if args.format == "csv":
        _write_out(gaps_to_csv(gaps), args.out)
    else:
        _write_out(spectrum_to_json(spec, gaps), args.out)
    return 0


def cmd_chern(args) -> int:
    model = _model_from(args)
    if args.band is not None:
        res = band_chern_transport(model, args.band, args.steps) \
            if args.method == "transport" else None
        if res is not None:
            payload = {"band": args.band, "chern_mod_q": res.chern_mod_q,
                       "holonomy": res.holonomy_phase, "method": "transport",
                       "grid": res.steps, "residual": res.phase_residual}
        else:
            from .chern import band_chern_fhs
            r = band_chern_fhs(model, args.band, args.grid)
            payload = {"band": args.band, "chern": r.value, "method": "fhs",
                       "grid": r.grid, "residual": r.residual}
    else:
        j = args.gap
        if args.method == "transport":
            payload = {"j": j, "chern": None,
                       "chern_mod_q": gap_residue_transport(model, j, args.steps),
                       "method": "transport", "grid": args.steps, "residual": 0.0}
        else:
            try:
                value = gap_chern(model, j, "fhs", args.grid, args.eps_gap)
            except GapClosed as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            payload = {"j": j, "chern": value, "method": "fhs",
                       "grid": args.grid, "residual": 0.0}
    if args.json or args.format == "json":
        _write_out(json.dumps(payload), args.out)
    else:
        _write_out(" ".join(f"{k}={v}" for k, v in payload.items()), args.out)
    return 0


def cmd_dioph(args) -> int:
    flux = Flux(args.p, args.q)
    q = flux.q
    js = [args.j] if args.j is not None else list(range(q + 1))
    computed = {}
    if args.strategy == "computed":
        from .chern import gap_chern_table
        model = _model_from(args)
        computed = {j: r.value for j, r in gap_chern_table(model, args.grid).items()}
    lines = []
    for j in js:
        rc = solve_residue(j, flux)
        entry = {"p": flux.p, "q": q, "j": j, "residue": rc.residue,
                 "strategy": args.strategy, "sigma": None}
        if j in (0, q):
            entry["sigma"] = 0
        elif args.strategy == "square":
            entry["sigma"] = resolve_in_window(rc, square_window(q))
        elif args.strategy == "triangular":
            entry["sigma"] = resolve_in_window(rc, triangular_window(q))
        elif args.strategy == "chain":
            entry["sigma"] = chain_assign(j, flux)
        else:
            entry["sigma"] = computed.get(j)
        if entry["sigma"] is None:
            entry["violation"] = "no window representative" \
                if args.strategy in ("square", "triangular") else "unresolved"
        lines.append(json.dumps(entry))
    _write_out("\n".join(lines), args.out)
    return 0


def cmd_butterfly(args) -> int:
    cfg = ButterflyConfig(
        q_max=args.qmax, phi_d=args.phi_d, t1=args.t1, t2=args.t2, t3=args.t3,
        resolver=args.resolver, exclusions=not args.no_exclusions,
        computed_q_max=args.computed_qmax, fhs_grid=args.grid,
        eps_gap=args.eps_gap, mu_bins=args.mu_bins, height=args.height,
        row_scale=args.row_scale, colormap_period=args.colormap_period,
        out=args.out, jobs=args.jobs)
    t0 = time.time()

    def progress(done, total):
        if args.verbose and (done % 500 == 0 or done == total):
            print(f"  {done}/{total} fluxes ({time.time() - t0:.1f}s)",
                  file=sys.stderr)

    base = args.out or "butterfly"
    jsonl_path = base if base.endswith(".jsonl") else base + ".jsonl"
    n_records, failures = sweep_to_jsonl(cfg, jsonl_path, progress=progress)
    print(f"wrote {n_records} gap records to {jsonl_path} "
          f"({time.time() - t0:.1f}s, {len(failures)} flux failures)",
          file=sys.stderr)
    if args.format == "csv":
        csv_path = jsonl_path.rsplit(".", 1)[0] + ".csv"
        with open(csv_path, "w") as fh:
            fh.write(gaps_to_csv(read_records_jsonl(jsonl_path)))
        print(f"wrote {csv_path}", file=sys.stderr)
    if args.format == "ppm":
        ppm_path = jsonl_path.rsplit(".", 1)[0] + ".ppm"
        with open(ppm_path, "wb") as fh:
            fh.write(render_jsonl(jsonl_path, cfg))  # streams the file in one pass
        print(f"wrote {ppm_path}", file=sys.stderr)
    if args.check:
        diagram = ButterflyDiagram(cfg, tuple(read_records_jsonl(jsonl_path)),
                                   tuple(failures))
        report = detect_coloring_errors(diagram)
        for pair in report[:50]:
            a, b = pair.rec_a, pair.rec_b
            print(f"inconsistent: ({a.p}/{a.q}, j={a.j}, sigma={a.chern}) vs "
                  f"({b.p}/{b.q}, j={b.j}, sigma={b.chern})")
        print(f"{len(report)} inconsistent pairs", file=sys.stderr)
    for p, q, reason in failures:
        print(f"flux {p}/{q} failed: {reason}", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results, ok = run_suites(names)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        detail = f"  [{r.detail}]" if r.detail else ""
        print(f"{status}  {r.name}{detail}")
    print(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hofbutter",
        description="Hofstadter spectra, gap Chern numbers and colored butterflies")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="band intervals and gaps of one flux")
    _add_model_flags(sp)
    sp.add_argument("--eps-gap", type=float, default=1e-8)
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("chern", help="Chern number of a gap or band")
    _add_model_flags(sp)
    sp.add_argument("--gap", type=int, help="gap index j in [0, q]")
    sp.add_argument("--band", type=int, help="band index in [1, q]")
    sp.add_argument("--method", choices=["fhs", "transport"], default="fhs")
    sp.add_argument("--grid", type=int, default=32)
    sp.add_argument("--steps", type=int, default=256)
    sp.add_argument("--eps-gap", type=float, default=1e-8)
    sp.add_argument("--json", action="store_true", help="emit JSON")
    sp.add_argument("--format", choices=["json", "text"], default="text")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_chern)

    sp = sub.add_parser("dioph", help="Diophantine residues and window choices")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--j", type=int, help="single gap index (default: all)")
    sp.add_argument("--strategy", choices=["square", "triangular", "chain", "computed"],
                    default="square")
    sp.add_argument("--phi-d", type=float, default=PHI_D_SYMMETRIC)
    sp.add_argument("--t1", type=float, default=1.0)
    sp.add_argument("--t2", type=float, default=1.0)
    sp.add_argument("--t3", type=float, default=1.0)
    sp.add_argument("--grid", type=int, default=32)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_dioph)

    sp = sub.add_parser("butterfly", help="full flux sweep, JSONL plus image")
    sp.add_argument("--qmax", type=int, default=64)
    sp.add_argument("--phi-d", type=float, default=PHI_D_SYMMETRIC)
    sp.add_argument("--t1", type=float, default=1.0)
    sp.add_argument("--t2", type=float, default=1.0)
    sp.add_argument("--t3", type=float, default=1.0)
    sp.add_argument("--resolver", choices=["square", "triangular", "chain", "computed"],
                    default="triangular")
    sp.add_argument("--no-exclusions", action="store_true",
                    help="force windows everywhere (reproduces wing miscolorings)")
    sp.add_argument("--computed-qmax", type=int, default=16)
    sp.add_argument("--grid", type=int, default=32)
    sp.add_argument("--eps-gap", type=float, default=1e-8)
    sp.add_argument("--mu-bins", type=int, default=1024)
    sp.add_argument("--height", type=int, default=1024)
    sp.add_argument("--row-scale", type=float, default=2.0)
    sp.add_argument("--colormap-period", type=int)
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--format", choices=["json", "csv", "ppm"], default="ppm")
    sp.add_argument("--check", action="store_true",
                    help="run the Streda coloring-error audit")
    sp.add_argument("--verbose", action="store_true")
    sp.add_argument("--out", help="output path base")
    sp.set_defaults(func=cmd_butterfly)

    sp = sub.add_parser("verify", help="run invariant suites")
    sp.add_argument("--suite", choices=[*SUITES, "all"], default="all")
    sp.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # --config FILE provides defaults; explicit flags override
    if "--config" in argv:
        i = argv.index("--config")
        path = argv[i + 1]
        del argv[i:i + 2]
        file_values = _load_config_file(path)
    else:
        file_values = {}
    parser = build_parser()
    args = parser.parse_args(argv)
    if file_values:
        defaults = vars(args)
        for key, raw in file_values.items():
            if key in defaults:
                provided = any(
                    a == f"--{key.replace('_', '-')}" or
                    a.startswith(f"--{key.replace('_', '-')}=") for a in argv)
                if not provided:
                    setattr(args, key, _coerce(defaults, key, raw))
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
