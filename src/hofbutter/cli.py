"""Command-line interface: spectrum | chern | dioph | butterfly.

``dioph`` is a view of one flux of a sweep: per gap it prints the
residue s*j mod q and the sigma, source and violation of the record
``butterfly.flux_records`` writes under the chosen resolver, with no
edge-winding fallback (computed_q_max = 0).

Every flag can also be supplied through a ``key = value`` config file
(``--config``); explicit command-line flags win over file values.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import __version__
from .butterfly import (
    RESOLVERS,
    ButterflyConfig,
    ButterflyDiagram,
    detect_coloring_errors,
    flux_records,
    read_records_jsonl,
    sweep_to_jsonl,
)
from .chern import (
    GRID_DEFAULT,
    TRANSPORT_STEPS_DEFAULT,
    GapClosed,
    GridDegeneracy,
    QuantizationFailure,
    TransportFailure,
    WindingFailure,
    band_chern_fhs,
    band_chern_transport,
    certify_gap,
    edge_chern,
    gap_residue_transport,
)
from .diophantine import solve_residue
from .magnetic_algebra import Flux, HofstadterModel
from .spectrum import (
    GAP_EPS_DEFAULT,
    check_eps_gap,
    compute_bands_or_dense,
    compute_gaps,
    gaps_to_csv,
    spectrum_to_json,
)
from .render import render, render_jsonl


# the window each resolver colors with; a gap whose residue class it
# does not hold stays gray
RESOLVER_HELP = ("the window that picks sigma from the class s*j mod q. "
                 "square: [-(q-1)/2, (q-1)/2] at odd q, [1-q/2, q/2-1] at even q "
                 "(the naive baseline away from t3 = 0); "
                 "triangular: [1-q/2, q/2] at even q, none at odd q; "
                 "chain: [-c, c] with c = max(1, q//4), [0, 0] at q <= 2; "
                 "computed: no window, edge-state winding at every q")


def _load_config_file(path: str) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment."""
    values = {}
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected 'key = value'")
            key, raw = (s.strip() for s in line.split("=", 1))
            values[key.replace("-", "_")] = raw
    return values


def _with_file_flags(parser: argparse.ArgumentParser, argv: list, values: dict) -> list:
    """argv with config-file values inserted as flags right after the
    subcommand, so the parser types and checks them and the explicit
    flags that follow win.  A boolean flag is passed when its value is
    1, true, yes or on, left out when it is 0, false, no or off, and any
    other value raises ValueError.  A key that another subcommand
    defines is skipped, so one file serves several subcommands; a key
    that no subcommand defines raises ValueError.
    """
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    known = {flag for sp in sub.choices.values() for flag in sp._option_string_actions}
    for key in values:
        if "--" + key.replace("_", "-") not in known:
            raise ValueError(f"config key {key!r} is not a flag of any subcommand")
    at = next((i for i, a in enumerate(argv) if a in sub.choices), None)
    if at is None:
        return argv
    actions = sub.choices[argv[at]]._option_string_actions
    flags = []
    for key, raw in values.items():
        flag = "--" + key.replace("_", "-")
        action = actions.get(flag)
        if action is None or isinstance(action, argparse._HelpAction):
            continue
        if action.nargs != 0:
            flags.append(f"{flag}={raw}")
        elif raw.lower() in ("1", "true", "yes", "on"):
            flags.append(flag)
        elif raw.lower() not in ("0", "false", "no", "off"):
            raise ValueError(f"config key {key!r} needs a boolean, got {raw!r}")
    return argv[:at + 1] + flags + argv[at + 1:]


def _model_from(args) -> HofstadterModel | None:
    """The model of the flags, or None after one error line when the
    flux is not reduced with 1 <= p <= q, or phi_d, a hopping or
    --eps-gap is not usable."""
    try:
        check_eps_gap(getattr(args, "eps_gap", GAP_EPS_DEFAULT))
        return HofstadterModel(Flux(args.p, args.q), args.phi_d,
                               args.t1, args.t2, args.t3)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _add_model_flags(sp):
    sp.add_argument("--p", type=int, required=True, help="flux numerator")
    sp.add_argument("--q", type=int, required=True, help="flux denominator")
    _add_phase_flags(sp)


def _add_phase_flags(sp):
    sp.add_argument("--phi-d", type=float, default=ButterflyConfig.phi_d,
                    help="down-triangle flux phase (radians)")
    for t in ("t1", "t2", "t3"):
        sp.add_argument(f"--{t}", type=float, default=getattr(ButterflyConfig, t))


def _write_out(text: str, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def cmd_spectrum(args) -> int:
    model = _model_from(args)
    if model is None:
        return 2
    spec = compute_bands_or_dense(model)
    gaps = compute_gaps(spec, args.eps_gap)
    if args.format == "csv":
        _write_out(gaps_to_csv(gaps), args.out)
    else:
        _write_out(spectrum_to_json(spec, gaps), args.out)
    return 0


def cmd_chern(args) -> int:
    model = _model_from(args)
    if model is None:
        return 2
    q = model.q
    if args.band is not None and not 1 <= args.band <= q:
        print(f"error: band index {args.band} outside 1..{q}", file=sys.stderr)
        return 2
    if args.gap is not None and not 0 <= args.gap <= q:
        print(f"error: gap index {args.gap} outside 0..{q}", file=sys.stderr)
        return 2
    for flag, value in (("--grid", args.grid), ("--steps", args.steps)):
        if value < 1:
            print(f"error: {flag} must be >= 1, got {value}", file=sys.stderr)
            return 2
    try:
        if args.band is not None and args.method == "transport":
            res = band_chern_transport(model, args.band, args.steps)
            payload = {"band": args.band, "chern_mod_q": res.chern_mod_q,
                       "holonomy": res.holonomy_phase, "method": "transport",
                       "grid": res.steps, "residual": res.phase_residual}
        elif args.method == "transport":
            payload = {"j": args.gap, "chern": None,
                       "chern_mod_q": gap_residue_transport(model, args.gap, args.steps),
                       "method": "transport", "grid": args.steps, "residual": 0.0}
        elif args.method == "edge":
            payload = _edge_payload(model, args)
        else:
            if args.band is not None:
                r = band_chern_fhs(model, args.band, args.grid, args.eps_gap)
            else:
                r = certify_gap(model, args.gap, args.grid, args.eps_gap)
            key = "band" if args.band is not None else "j"
            payload = {key: r.index, "chern": r.value, "method": "fhs",
                       "grid": r.grid, "residual": r.residual}
    except (GapClosed, QuantizationFailure, GridDegeneracy, TransportFailure,
            WindingFailure) as exc:
        # exit 2 for a gap that is not open, 1 for an open one that no grid,
        # transport path or edge-winding certificate resolves
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, GapClosed) else 1
    if args.format == "json":
        _write_out(json.dumps(payload), args.out)
    else:
        _write_out(" ".join(f"{k}={v}" for k, v in payload.items()), args.out)
    return 0


def _edge_payload(model: HofstadterModel, args) -> dict:
    """The edge-winding payload of ``chern --method edge``: sigma_j of
    --gap j with its crossings, energies and margin, or sigma_n -
    sigma_(n-1) of --band n with the smaller margin of its two gaps.
    The outer gaps have no energies and a null margin."""
    if args.gap is not None:
        res = edge_chern(model, (args.gap,), args.eps_gap)[args.gap]
        margin = res.margin
        payload = {"j": args.gap, "chern": res.value, "method": "edge",
                   "crossings": list(res.crossings), "energies": list(res.energies)}
    else:
        ends = edge_chern(model, (args.band - 1, args.band), args.eps_gap)
        below, above = ends[args.band - 1], ends[args.band]
        margin = min(below.margin, above.margin)
        payload = {"band": args.band, "chern": above.value - below.value,
                   "method": "edge"}
    payload["margin"] = None if math.isinf(margin) else margin
    return payload


def cmd_dioph(args) -> int:
    model = _model_from(args)
    if model is None:
        return 2
    flux = model.flux
    if args.j is not None and not 0 <= args.j <= flux.q:
        print(f"error: gap index {args.j} outside 0..{flux.q}", file=sys.stderr)
        return 2
    try:
        cfg = ButterflyConfig(phi_d=args.phi_d, t1=args.t1, t2=args.t2, t3=args.t3,
                              resolver=args.strategy, computed_q_max=0)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    records = flux_records(flux.p, flux.q, cfg)
    lines = []
    for rec in records if args.j is None else [records[args.j]]:
        entry = {"p": flux.p, "q": flux.q, "j": rec.j,
                 "residue": solve_residue(rec.j, flux).residue,
                 "strategy": args.strategy, "sigma": rec.chern,
                 "source": rec.chern_source}
        if rec.chern is None:
            entry["violation"] = "closed" if rec.closed else "unresolved"
        lines.append(json.dumps(entry))
    _write_out("\n".join(lines), args.out)
    return 0


def cmd_butterfly(args) -> int:
    try:
        cfg = ButterflyConfig(
            q_max=args.qmax, phi_d=args.phi_d, t1=args.t1, t2=args.t2, t3=args.t3,
            resolver=args.resolver, computed_q_max=args.computed_qmax,
            eps_gap=args.eps_gap, mu_bins=args.mu_bins, height=args.height,
            row_scale=args.row_scale, colormap_period=args.colormap_period,
            jobs=args.jobs)
    except ValueError as exc:  # checked before the sweep writes anything
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    # the file is decoded once: into a list when the CSV or the audit
    # needs one, else streamed by render_jsonl
    records = None
    if args.check or args.format == "csv":
        records = read_records_jsonl(jsonl_path)
    if args.format == "csv":
        csv_path = jsonl_path.rsplit(".", 1)[0] + ".csv"
        with open(csv_path, "w") as fh:
            fh.write(gaps_to_csv(records))
        print(f"wrote {csv_path}", file=sys.stderr)
    if args.format == "ppm":
        ppm_path = jsonl_path.rsplit(".", 1)[0] + ".ppm"
        with open(ppm_path, "wb") as fh:
            fh.write(render_jsonl(jsonl_path, cfg) if records is None
                     else render(records, cfg))
        print(f"wrote {ppm_path}", file=sys.stderr)
    if args.check:
        diagram = ButterflyDiagram(cfg, tuple(records), tuple(failures))
        report = detect_coloring_errors(diagram)
        for pair in report[:50]:
            a, b = pair.rec_a, pair.rec_b
            print(f"inconsistent: ({a.p}/{a.q}, j={a.j}, sigma={a.chern}) vs "
                  f"({b.p}/{b.q}, j={b.j}, sigma={b.chern})")
        print(f"{len(report)} inconsistent pairs", file=sys.stderr)
    for p, q, reason in failures:
        print(f"flux {p}/{q} failed: {reason}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hofbutter",
        description="Hofstadter spectra, gap Chern numbers and colored butterflies",
        epilog="--config PATH (or --config=PATH), anywhere on the command line, "
               "reads flags from a file of 'key = value' lines ('#' starts a "
               "comment; a boolean flag takes on/off, yes/no, true/false or 1/0); "
               "flags given on the command line win over the file's values")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="band intervals and gaps of one flux")
    _add_model_flags(sp)
    sp.add_argument("--eps-gap", type=float, default=GAP_EPS_DEFAULT)
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("chern", help="Chern number of a gap or band")
    _add_model_flags(sp)
    target = sp.add_mutually_exclusive_group(required=True)
    target.add_argument("--gap", type=int, help="gap index j in [0, q]")
    target.add_argument("--band", type=int, help="band index in [1, q]")
    sp.add_argument("--method", choices=["fhs", "transport", "edge"], default="fhs")
    sp.add_argument("--grid", type=int, default=GRID_DEFAULT)
    sp.add_argument("--steps", type=int, default=TRANSPORT_STEPS_DEFAULT)
    sp.add_argument("--eps-gap", type=float, default=GAP_EPS_DEFAULT,
                    help="closed-gap width for --method fhs and edge; transport "
                         "uses the default")
    sp.add_argument("--format", choices=["json", "text"], default="text")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_chern)

    sp = sub.add_parser("dioph", help="Diophantine residues and the sweep's choices")
    _add_model_flags(sp)
    sp.add_argument("--j", type=int, help="single gap index (default: all)")
    sp.add_argument("--strategy", choices=RESOLVERS, default="square",
                    help=RESOLVER_HELP)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_dioph)

    sp = sub.add_parser("butterfly", help="full flux sweep, JSONL plus image")
    sp.add_argument("--qmax", type=int, default=64)
    _add_phase_flags(sp)
    sp.add_argument("--resolver", choices=RESOLVERS, default=ButterflyConfig.resolver,
                    help=RESOLVER_HELP + "; the other resolvers send the gaps "
                         "their window leaves gray to the edge-state winding "
                         "when q <= --computed-qmax")
    sp.add_argument("--computed-qmax", type=int, default=ButterflyConfig.computed_q_max)
    sp.add_argument("--eps-gap", type=float, default=ButterflyConfig.eps_gap)
    sp.add_argument("--mu-bins", type=int, default=ButterflyConfig.mu_bins)
    sp.add_argument("--height", type=int, default=ButterflyConfig.height)
    sp.add_argument("--row-scale", type=float, default=ButterflyConfig.row_scale)
    sp.add_argument("--colormap-period", type=int, default=ButterflyConfig.colormap_period)
    sp.add_argument("--jobs", type=int, default=ButterflyConfig.jobs)
    sp.add_argument("--format", choices=["json", "csv", "ppm"], default="ppm")
    sp.add_argument("--check", action="store_true",
                    help="run the Streda coloring-error audit")
    sp.add_argument("--verbose", action="store_true")
    sp.add_argument("--out", help="output path base")
    sp.set_defaults(func=cmd_butterfly)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    # --config PATH or --config=PATH, taken out of argv before the parser
    # sees it (the file's flags go right after the subcommand)
    at = next((i for i, a in enumerate(argv)
               if a == "--config" or a.startswith("--config=")), None)
    if at is not None:
        _, eq, path = argv.pop(at).partition("=")
        try:
            if not eq and at < len(argv):
                path = argv.pop(at)
            if not path:
                raise ValueError("--config needs a path")
            values = _load_config_file(path)
            argv = _with_file_flags(parser, argv, values)
        except (OSError, ValueError) as exc:  # one error line, as for any bad input
            print(f"error: {exc}", file=sys.stderr)
            return 2
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
