import importlib
import inspect
import json
import math

import pytest

from hofbutter import (PHI_D_SYMMETRIC, ButterflyConfig, Flux, HofstadterModel, butterfly,
                       build_diagram, chern, cli, spectrum)
from hofbutter.butterfly import RESOLVERS, decode_blocks
from hofbutter.cli import main
from hofbutter.render import read_ppm


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestSpectrum:
    def test_json_output(self, capsys):
        code, out = run(["spectrum", "--p", "1", "--q", "3"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["q"] == 3
        assert len(payload["bands"]) == 3

    def test_csv_output(self, capsys):
        code, out = run(["spectrum", "--p", "1", "--q", "2", "--t3", "0",
                         "--format", "csv"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "p,q,j,lo,hi,width,closed,chern,source"

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "spec.json"
        code, _ = run(["spectrum", "--p", "2", "--q", "5", "--out", str(target)],
                      capsys)
        assert code == 0
        assert json.loads(target.read_text())["p"] == 2


class TestChern:
    def test_gap_fhs_json(self, capsys):
        code, out = run(["chern", "--p", "2", "--q", "5", "--gap", "1",
                         "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        # j = 1 of 2/5 certifies at grid 64, stable after grid 32
        assert payload == {"j": 1, "chern": -2, "method": "fhs",
                           "grid": 64, "residual": pytest.approx(0.0, abs=1e-12)}

    def test_gap_transport_residue(self, capsys):
        code, out = run(["chern", "--p", "2", "--q", "5", "--gap", "2",
                         "--method", "transport", "--format", "json"], capsys)
        payload = json.loads(out)
        assert code == 0
        assert payload["chern"] is None
        assert payload["chern_mod_q"] == 1  # 3*2 mod 5

    def test_band_transport(self, capsys):
        code, out = run(["chern", "--p", "1", "--q", "3", "--band", "1",
                         "--t3", "0", "--method", "transport", "--format", "json"],
                        capsys)
        payload = json.loads(out)
        assert payload["chern_mod_q"] == 1

    @pytest.mark.parametrize("args,chern_value", [
        (["--p", "7", "--q", "15", "--gap", "5"], -10),
        # 3/8 gap 4 at phi_d = 0.3 anisotropic: no FHS grid up to 256 certifies it
        (["--p", "3", "--q", "8", "--phi-d", "0.3", "--t2", "0.8", "--t3", "0.6",
          "--gap", "4"], 4),
    ])
    def test_gap_edge_json(self, capsys, args, chern_value):
        code, out = run(["chern", *args, "--method", "edge", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert (payload["j"], payload["chern"], payload["method"]) == \
            (int(args[-1]), chern_value, "edge")
        assert len(payload["energies"]) == len(payload["crossings"]) == 3
        assert len(set(payload["crossings"])) == 1 and payload["crossings"][0] > 0
        assert 1e-8 <= payload["margin"] < 1

    @pytest.mark.parametrize("p,q,band", [(2, 5, 1), (2, 5, 2), (2, 5, 5), (1, 4, 3)])
    def test_band_edge_is_a_difference_of_gaps(self, capsys, p, q, band):
        code, out = run(["chern", "--p", str(p), "--q", str(q), "--band", str(band),
                         "--method", "edge", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        model = HofstadterModel(Flux(p, q), PHI_D_SYMMETRIC)
        assert payload["chern"] == chern.band_chern_fhs(model, band).value
        assert payload["method"] == "edge" and payload["margin"] > 0

    @pytest.mark.parametrize("target", [["--gap", "1"], ["--band", "2"]])
    def test_edge_certificate_failure_errors(self, capsys, monkeypatch, target):
        # an open gap whose crossings sit within the edge-side threshold:
        # one error line, exit 1
        monkeypatch.setattr(chern, "EDGE_SIDE_TOL", 10.0)
        code = main(["chern", "--p", "2", "--q", "5", "--method", "edge", *target])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: gap 1 of 2/5: ") and len(err.splitlines()) == 1

    def test_closed_gap_errors(self, capsys):
        code = main(["chern", "--p", "1", "--q", "3", "--gap", "2"])
        assert code == 2

    @pytest.mark.parametrize("target", [["--q", "12", "--band", "6"],
                                        ["--q", "3", "--band", "1", "--eps-gap", "10"]])
    def test_band_not_isolated_errors(self, capsys, target):
        # square 1/12 band 6 touches band 7; --eps-gap 10 closes every gap of 1/3
        code = main(["chern", "--p", "1", "--t3", "0", *target])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: gap ")

    @pytest.mark.parametrize("method,target,message", [
        (method, target, message) for target, message, methods in [
            (["--q", "3", "--gap", "2"], "gap 2 of 1/3", ("fhs", "transport", "edge")),
            (["--q", "3", "--band", "2"], "gap 2 of 1/3", ("fhs", "transport", "edge")),
            (["--q", "3", "--band", "3"], "gap 2 of 1/3", ("fhs", "transport", "edge")),
            (["--q", "12", "--t3", "0", "--band", "6"], "gap 6 of 1/12",
             ("fhs", "transport", "edge")),
            # a residue sums bands 1..7; FHS needs only gap 7 itself open
            (["--q", "12", "--t3", "0", "--gap", "7"], "gap 6 of 1/12", ("transport",)),
        ] for method in methods])
    def test_gap_closed_errors(self, capsys, method, target, message):
        # transport and edge winding refuse what FHS refuses: one error
        # line, exit 2
        code = main(["chern", "--p", "1", "--method", method, *target])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {message} has width ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("failure", [chern.GridDegeneracy, chern.TransportFailure])
    @pytest.mark.parametrize("name,target", [("band_chern_transport", ["--band", "1"]),
                                             ("gap_residue_transport", ["--gap", "1"])])
    def test_unforeseen_transport_failure_errors(self, capsys, monkeypatch, failure,
                                                 name, target):
        # a failure the spectrum check did not foresee: one error line, exit 1
        def fail(*args):
            raise failure("band 1 degenerate along path")

        monkeypatch.setattr(cli, name, fail)
        code = main(["chern", "--p", "2", "--q", "5", "--method", "transport", *target])
        assert code == 1
        assert capsys.readouterr().err == "error: band 1 degenerate along path\n"

    @pytest.mark.parametrize("target", [["--gap", "1"], ["--band", "2"]])
    def test_uncertified_errors(self, capsys, monkeypatch, target):
        # an open gap or band that no grid certifies: one error line, exit 1
        monkeypatch.setattr(chern, "_certify", lambda model, blocks, grid: {})
        code = main(["chern", "--p", "2", "--q", "5", *target])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bands ") and "grid 256" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("method", ["fhs", "transport", "edge"])
    @pytest.mark.parametrize("target,message", [
        (["--band", "0"], "band index 0 outside 1..5"),
        (["--band", "6"], "band index 6 outside 1..5"),
        (["--gap", "9"], "gap index 9 outside 0..5"),
        (["--gap", "-1"], "gap index -1 outside 0..5"),
    ])
    def test_index_out_of_range(self, capsys, monkeypatch, method, target, message):
        # checked once, before either method runs: one error line, exit 2
        for name in ("band_chern_fhs", "certify_gap", "band_chern_transport",
                     "gap_residue_transport", "edge_chern"):
            monkeypatch.setattr(cli, name, None)
        code = main(["chern", "--p", "2", "--q", "5", "--method", method, *target])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("method", ["fhs", "transport", "edge"])
    @pytest.mark.parametrize("target", [["--gap", "1"], ["--band", "1"]])
    @pytest.mark.parametrize("flag,value", [("--grid", "0"), ("--grid", "-8"),
                                            ("--steps", "0"), ("--steps", "-4")])
    def test_unusable_grid_or_steps(self, capsys, monkeypatch, method, target,
                                    flag, value):
        # at the transport method --steps 0 once printed chern_mod_q=0 for a
        # band whose residue is 1; --grid 0 died in a ZeroDivisionError
        for name in ("band_chern_fhs", "certify_gap", "band_chern_transport",
                     "gap_residue_transport", "edge_chern"):
            monkeypatch.setattr(cli, name, None)
        code = main(["chern", "--p", "1", "--q", "3", "--method", method, *target,
                     flag, value])
        assert code == 2
        assert capsys.readouterr().err == f"error: {flag} must be >= 1, got {value}\n"

    @pytest.mark.parametrize("method", ["fhs", "transport", "edge"])
    @pytest.mark.parametrize("target", [["--gap", "0"], ["--gap", "5"],
                                        ["--band", "1"], ["--band", "5"]])
    def test_end_indices_in_range(self, capsys, method, target):
        code, out = run(["chern", "--p", "2", "--q", "5", *target,
                         "--method", method, "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["j" if target[0] == "--gap" else "band"] == int(target[1])
        if target[0] == "--gap":
            assert payload.get("chern_mod_q", payload["chern"]) == 0

    @pytest.mark.parametrize("target", [[], ["--gap", "1", "--band", "1"]])
    def test_needs_exactly_one_of_gap_and_band(self, capsys, target):
        with pytest.raises(SystemExit) as exc:
            main(["chern", "--p", "2", "--q", "5", *target])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: hofbutter chern")
        error = err.strip().splitlines()[-1]
        assert error.startswith("hofbutter chern: error:") and "--band" in error


class TestDioph:
    def test_all_gaps(self, capsys):
        code, out = run(["dioph", "--p", "2", "--q", "5", "--strategy", "square"],
                        capsys)
        lines = [json.loads(line) for line in out.strip().split("\n")]
        assert [e["j"] for e in lines] == [0, 1, 2, 3, 4, 5]
        assert [e["sigma"] for e in lines] == [0, -2, 1, -1, 2, 0]

    def test_single_gap_triangular(self, capsys):
        code, out = run(["dioph", "--p", "1", "--q", "4", "--j", "2",
                         "--strategy", "triangular"], capsys)
        entry = json.loads(out)
        assert entry["sigma"] == 2
        assert entry["residue"] == 2

    def test_violation_reported(self, capsys):
        # square window at even q cannot color the middle class
        code, out = run(["dioph", "--p", "1", "--q", "4", "--j", "2",
                         "--strategy", "square"], capsys)
        entry = json.loads(out)
        assert entry["sigma"] is None
        assert "violation" in entry

    def test_computed_strategy(self, capsys):
        code, out = run(["dioph", "--p", "2", "--q", "5", "--j", "1",
                         "--strategy", "computed"], capsys)
        assert json.loads(out)["sigma"] == -2

    def test_gap_out_of_range(self, capsys):
        assert main(["dioph", "--p", "2", "--q", "5", "--j", "6"]) != 0
        assert "outside 0..5" in capsys.readouterr().err

    @pytest.mark.parametrize("strategy", RESOLVERS)
    @pytest.mark.parametrize("phi_d", [PHI_D_SYMMETRIC, 0.3])
    def test_sigma_is_the_sweep_record(self, capsys, strategy, phi_d):
        # dioph is a view of the sweep without the edge-winding fallback; at 3/7 the
        # triangular strategy defers every gap.  The sweep batches each
        # denominator, dioph takes its one flux alone
        diagram = build_diagram(ButterflyConfig(q_max=9, phi_d=phi_d, resolver=strategy,
                                                computed_q_max=0))
        assert not diagram.failures
        for p, q in [(1, 4), (2, 5), (3, 7), (4, 9)]:
            records = diagram.records_for(p, q)
            code, out = run(["dioph", "--p", str(p), "--q", str(q),
                             f"--phi-d={phi_d!r}", "--strategy", strategy], capsys)
            lines = [json.loads(line) for line in out.strip().split("\n")]
            assert code == 0
            assert [e["sigma"] for e in lines] == [r.chern for r in records]
            assert [e["source"] for e in lines] == [r.chern_source for r in records]

    def test_closed_gap_has_no_sigma(self, capsys):
        # gap 2 of 1/3 is closed at phi_d = -pi/2; the square window has a
        # representative of its class, but a closed gap carries no sigma
        code, out = run(["dioph", "--p", "1", "--q", "3", "--j", "2"], capsys)
        entry = json.loads(out)
        assert entry["sigma"] is None
        assert entry["violation"] == "closed"


class TestButterfly:
    def test_sweep_writes_outputs(self, tmp_path, capsys):
        base = tmp_path / "bf"
        code = main(["butterfly", "--qmax", "4", "--resolver", "computed",
                     "--computed-qmax", "4", "--mu-bins", "64", "--height", "32",
                     "--out", str(base)])
        assert code == 0
        records = (tmp_path / "bf.jsonl").read_text().strip().split("\n")
        assert len(records) == sum(
            q + 1 for q in range(1, 5) for p in range(1, q + 1)
            if math.gcd(p, q) == 1)
        img = read_ppm((tmp_path / "bf.ppm").read_bytes())
        assert img.shape == (32, 64, 3)

    def test_check_flag(self, tmp_path, capsys):
        base = tmp_path / "bf"
        code, out = run(["butterfly", "--qmax", "5", "--resolver", "square",
                         "--format", "json", "--check",
                         "--out", str(base)], capsys)
        assert code == 0
        assert "inconsistent" in out

    @pytest.mark.parametrize("flags,message", [
        (["--height", "-4"], "height must be >= 1"),
        (["--height", "0"], "height must be >= 1"),
        (["--mu-bins", "1"], "mu_bins must be >= 2"),
        (["--qmax", "0"], "q_max must be >= 1"),
        (["--jobs", "0"], "jobs must be >= 1"),
        (["--jobs", "-2"], "jobs must be >= 1"),
        # these once ran the sweep, failed every flux and exited 0
        (["--t1", "-1"],
         "hopping amplitudes must be finite and nonnegative, got t1=-1.0, t2=1.0, t3=1.0"),
        (["--t3", "inf"],
         "hopping amplitudes must be finite and nonnegative, got t1=1.0, t2=1.0, t3=inf"),
        (["--phi-d", "nan"], "phi_d must be finite, got nan"),
        # these wrote the JSONL and then died in the render, leaving an empty .ppm
        (["--row-scale", "nan"], "row_scale must be finite, got nan"),
        (["--row-scale", "inf"], "row_scale must be finite, got inf"),
        # these flagged every gap open, closed ones included
        (["--eps-gap", "nan"], "eps_gap must be finite and >= 0, got nan"),
        (["--eps-gap=-1"], "eps_gap must be finite and >= 0, got -1.0"),
        # 0 rendered the default period and a negative one reversed the hues
        (["--colormap-period", "0"], "colormap_period must be >= 1, got 0"),
        (["--colormap-period", "-3"], "colormap_period must be >= 1, got -3"),
    ])
    def test_bad_config_rejected_before_sweep(self, tmp_path, capsys, monkeypatch,
                                              flags, message):
        monkeypatch.setattr(cli, "sweep_to_jsonl", None)
        code = main(["butterfly", "--qmax", "3", *flags, "--format", "ppm",
                     "--out", str(tmp_path / "bf")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fmt,check", [("ppm", True), ("ppm", False),
                                           ("csv", True), ("csv", False)])
    def test_jsonl_decoded_once(self, tmp_path, capsys, monkeypatch, fmt, check):
        # every reader decodes through decode_blocks and its one
        # json.loads site, _decode_block: one call is one pass, and the
        # lines that pass decodes are those of the file
        passes, decoded = [], []
        decode_block = butterfly._decode_block

        def spy(lines):
            passes.append(fmt)
            yield from decode_blocks(lines)

        def counting(lines):
            decoded.extend(lines)
            return decode_block(lines)

        monkeypatch.setattr(butterfly, "decode_blocks", spy)
        monkeypatch.setattr(butterfly, "_decode_block", counting)
        monkeypatch.setattr(importlib.import_module("hofbutter.render"),
                            "decode_blocks", spy)
        code = main(["butterfly", "--qmax", "5", "--resolver", "square",
                     "--mu-bins", "64", "--height", "32",
                     "--format", fmt, *(["--check"] if check else []),
                     "--out", str(tmp_path / "bf")])
        assert code == 0
        assert passes == [fmt]
        assert decoded == (tmp_path / "bf.jsonl").read_text().splitlines(keepends=True)
        assert (tmp_path / f"bf.{fmt}").stat().st_size > 0
        assert ("inconsistent" in capsys.readouterr().out) == check


@pytest.mark.parametrize("command", [["spectrum"], ["chern", "--gap", "1"], ["dioph"]])
@pytest.mark.parametrize("flags,message", [
    (["--p", "3", "--q", "3"], "flux 3/3 is not reduced"),
    (["--p", "0", "--q", "3"], "need 1 <= p <= q, got p=0, q=3"),
    (["--p", "4", "--q", "3"], "need 1 <= p <= q, got p=4, q=3"),
    (["--p", "1", "--q", "3", "--t2", "-1"],
     "hopping amplitudes must be finite and nonnegative, got t1=1.0, t2=-1.0, t3=1.0"),
    (["--p", "1", "--q", "3", "--phi-d", "nan"], "phi_d must be finite, got nan"),
])
def test_bad_model_flags(capsys, monkeypatch, command, flags, message):
    # one error line and exit 2 before any work, where a traceback ended
    # these commands
    for name in ("compute_bands_or_dense", "certify_gap", "flux_records"):
        monkeypatch.setattr(cli, name, None)
    code = main([command[0], *flags, *command[1:]])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", [["spectrum"], ["chern", "--gap", "2"],
                                     ["chern", "--band", "1", "--method", "transport"]])
@pytest.mark.parametrize("value", ["nan", "-1", "inf"])
def test_unusable_eps_gap(capsys, monkeypatch, command, value):
    # a NaN or negative --eps-gap flagged every gap open: spectrum printed
    # the closed gap 2 of 1/3 as open, and chern spent grids 32..256 on it
    for name in ("compute_bands_or_dense", "certify_gap", "band_chern_transport"):
        monkeypatch.setattr(cli, name, None)
    code = main([command[0], "--p", "1", "--q", "3", f"--eps-gap={value}", *command[1:]])
    assert code == 2
    assert capsys.readouterr().err == \
        f"error: eps_gap must be finite and >= 0, got {float(value)}\n"


def test_parser_defaults_are_the_library_defaults():
    parse = cli.build_parser().parse_args
    flux = ["--p", "1", "--q", "3"]
    cfg = ButterflyConfig()
    bf = parse(["butterfly"])
    assert (bf.phi_d, bf.t1, bf.t2, bf.t3, bf.resolver, bf.computed_qmax,
            bf.eps_gap, bf.mu_bins, bf.height, bf.row_scale, bf.colormap_period,
            bf.jobs) == \
        (cfg.phi_d, cfg.t1, cfg.t2, cfg.t3, cfg.resolver, cfg.computed_q_max,
         cfg.eps_gap, cfg.mu_bins, cfg.height, cfg.row_scale,
         cfg.colormap_period, cfg.jobs)
    sp, ch, di = (parse(["spectrum", *flux]), parse(["chern", *flux, "--gap", "1"]),
                  parse(["dioph", *flux]))
    for args in (sp, ch, di):
        assert (args.phi_d, args.t1, args.t2, args.t3) == (cfg.phi_d, cfg.t1, cfg.t2, cfg.t3)
    fhs = inspect.signature(chern.certify_gap).parameters
    steps = inspect.signature(chern.band_chern_transport).parameters["steps"]
    gaps = inspect.signature(spectrum.compute_gaps).parameters["eps_gap"]
    assert (ch.grid, ch.eps_gap, ch.steps) == \
        (fhs["grid"].default, fhs["eps_gap"].default, steps.default)
    assert sp.eps_gap == gaps.default == cfg.eps_gap


@pytest.mark.parametrize("command", [["butterfly", "--qmax", "3"],
                                     ["dioph", "--p", "2", "--q", "5"]])
def test_no_grid_flag_off_the_chern_command(capsys, monkeypatch, command):
    # only hofbutter chern runs FHS, so only it takes --grid
    monkeypatch.setattr(cli, "sweep_to_jsonl", None)
    monkeypatch.setattr(cli, "flux_records", None)
    with pytest.raises(SystemExit) as exc:
        main([*command, "--grid", "32"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --grid 32" in capsys.readouterr().err


def test_no_exclusions_flag(capsys, monkeypatch):
    # the naive-window baseline is --resolver square, not a second switch
    monkeypatch.setattr(cli, "sweep_to_jsonl", None)
    with pytest.raises(SystemExit) as exc:
        main(["butterfly", "--qmax", "3", "--no-exclusions"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-exclusions" in capsys.readouterr().err


ZERO_HOPPINGS = ["--t1", "0", "--t2", "0", "--t3", "0"]


class TestZeroHoppings:
    """H = 0 is a valid model: every band is the point 0 and every
    interior gap is closed.  These once died dividing by max(t) = 0."""

    def test_spectrum(self, capsys):
        code, out = run(["spectrum", "--p", "2", "--q", "5", *ZERO_HOPPINGS], capsys)
        data = json.loads(out)
        assert code == 0
        assert data["bands"] == [[0.0, 0.0]] * 5
        assert [g["closed"] for g in data["gaps"]] == [False] + [True] * 4 + [False]

    def test_no_signed_zeros(self, tmp_path, capsys):
        # the edges of H = 0 came out of eigvalsh as -0.0: spectrum printed
        # band 1 of 1/3 as [-0.0, -0.0], and the sweep wrote "width": -0.0
        code, out = run(["spectrum", "--p", "1", "--q", "3", *ZERO_HOPPINGS], capsys)
        assert code == 0 and "-0.0" not in out
        assert main(["butterfly", "--qmax", "3", *ZERO_HOPPINGS, "--format", "json",
                     "--out", str(tmp_path / "bf")]) == 0
        text = (tmp_path / "bf.jsonl").read_text()
        assert '"width": 0.0' in text and "-0.0" not in text

    @pytest.mark.parametrize("method", ["fhs", "transport", "edge"])
    @pytest.mark.parametrize("target", [["--gap", "1"], ["--band", "2"]])
    def test_chern_gap_closed(self, capsys, method, target):
        code = main(["chern", "--p", "1", "--q", "3", "--method", method, *target,
                     *ZERO_HOPPINGS])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: gap 1 of 1/3 has width ") and len(err.splitlines()) == 1

    def test_dioph_closed(self, capsys):
        code, out = run(["dioph", "--p", "2", "--q", "5", *ZERO_HOPPINGS], capsys)
        lines = [json.loads(line) for line in out.strip().split("\n")]
        assert code == 0
        assert [e.get("violation") for e in lines] == [None] + ["closed"] * 4 + [None]

    def test_butterfly(self, tmp_path, capsys):
        code = main(["butterfly", "--qmax", "6", *ZERO_HOPPINGS, "--mu-bins", "16",
                     "--height", "8", "--check", "--out", str(tmp_path / "bf")])
        err = capsys.readouterr().err
        assert code == 0
        assert "0 flux failures" in err and "failed" not in err
        records = [json.loads(line) for line in
                   (tmp_path / "bf.jsonl").read_text().splitlines()]
        assert len(records) == sum(q + 1 for q in range(1, 7) for p in range(1, q + 1)
                                   if math.gcd(p, q) == 1)
        assert all(r["closed"] for r in records if 0 < r["j"] < r["q"])


class TestConfigFile:
    def test_file_defaults_and_cli_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# sweep settings\nqmax = 3\nresolver = chain\n"
                       "mu-bins = 32\nheight = 16\nformat = json\n")
        base = tmp_path / "out"
        code = main(["butterfly", "--config", str(cfg), "--qmax", "2",
                     "--out", str(base)])
        assert code == 0
        lines = (tmp_path / "out.jsonl").read_text().strip().split("\n")
        qs = {json.loads(line)["q"] for line in lines}
        assert qs == {1, 2}  # CLI --qmax 2 beat the file's 3
        assert not (tmp_path / "out.ppm").exists()  # file format=json applied

    def test_file_values_take_the_parser_types(self, tmp_path, capsys):
        # --colormap-period and --j default to None, so no default gives their type
        cfg = tmp_path / "run.cfg"
        cfg.write_text("qmax = 3\nmu-bins = 16\nheight = 8\ncolormap-period = 2\n")
        assert main(["butterfly", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert main(["butterfly", "--qmax", "3", "--mu-bins", "16", "--height", "8",
                     "--colormap-period", "2", "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a.ppm").read_bytes() == (tmp_path / "b.ppm").read_bytes()
        cfg.write_text("j = 1\nqmax = 3\n")  # dioph has no --qmax: ignored
        code, out = run(["dioph", "--config", str(cfg), "--p", "2", "--q", "5"], capsys)
        assert code == 0
        assert json.loads(out)["j"] == 1
        # --config=PATH reads the same file, after the subcommand or before it
        for argv in (["dioph", f"--config={cfg}", "--p", "2", "--q", "5"],
                     [f"--config={cfg}", "dioph", "--p", "2", "--q", "5"]):
            assert run(argv, capsys) == (0, out)

    @pytest.mark.parametrize("case", ["no_path", "missing_file", "line_without_equals",
                                      "unknown_key", "bad_boolean", "empty_path",
                                      "no_path_equals", "missing_file_equals",
                                      "unknown_key_equals"])
    def test_unusable_config_is_one_error_line(self, tmp_path, capsys, monkeypatch, case):
        # no path, an empty one, a missing file, a line without '=', a key
        # that no subcommand defines or a boolean flag with a value that is
        # neither on nor off, given as --config PATH or --config=PATH: one
        # error line and exit 2 before any work, as for every other bad input
        monkeypatch.setattr(cli, "sweep_to_jsonl", None)
        cfg, missing, typo = tmp_path / "run.cfg", tmp_path / "missing.cfg", tmp_path / "typo.cfg"
        badbool = tmp_path / "badbool.cfg"
        cfg.write_text("# sweep settings\nqmax = 3\nmu-bins 16\n")
        typo.write_text("qmax = 3\nmu_binz = 16\n")
        badbool.write_text("check = ture\n")
        no_file = f"[Errno 2] No such file or directory: '{missing}'"
        unknown = "config key 'mu_binz' is not a flag of any subcommand"
        flags, message = {
            "no_path": (["--config"], "--config needs a path"),
            "missing_file": (["--config", str(missing)], no_file),
            "line_without_equals": (["--config", str(cfg)], f"{cfg}:3: expected 'key = value'"),
            "unknown_key": (["--config", str(typo)], unknown),
            "bad_boolean": (["--config", str(badbool)],
                            "config key 'check' needs a boolean, got 'ture'"),
            "empty_path": (["--config", ""], "--config needs a path"),
            "no_path_equals": (["--config="], "--config needs a path"),
            "missing_file_equals": ([f"--config={missing}"], no_file),
            "unknown_key_equals": ([f"--config={typo}"], unknown),
        }[case]
        code = main(["butterfly", "--qmax", "2", *flags])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("raw, audited", [("yes", True), ("On", True),
                                              ("off", False), ("FALSE", False)])
    def test_boolean_values(self, tmp_path, capsys, raw, audited):
        # a boolean key turns its flag on or leaves it off, in any letter case
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"check = {raw}\n")
        code = main(["butterfly", "--qmax", "5", "--resolver", "square", "--config", str(cfg),
                     "--out", str(tmp_path / "bf")])
        assert code == 0
        assert ("inconsistent pairs" in capsys.readouterr().err) == audited

    def test_help_names_the_config_flag(self, capsys):
        # --config is not a parser flag, so the top-level help says how to use it
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "--config PATH (or --config=PATH)" in " ".join(capsys.readouterr().out.split())

    def test_misspelled_key_is_refused(self, tmp_path, capsys):
        # jj is no flag of any subcommand: dioph prints nothing and exits 2,
        # where j = 1 selects one gap and qmax, a butterfly flag, is skipped
        cfg = tmp_path / "run.cfg"
        cfg.write_text("jj = 1\nqmax = 3\n")
        code = main(["dioph", "--config", str(cfg), "--p", "2", "--q", "5"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: config key 'jj' is not a flag of any subcommand\n"
        cfg.write_text("j = 1\nqmax = 3\n")
        code, out = run(["dioph", "--config", str(cfg), "--p", "2", "--q", "5"], capsys)
        assert code == 0 and len(out.strip().splitlines()) == 1
