"""Hofstadter spectra, gap Chern numbers and colored butterflies on the
triangular lattice, with the square/rectangular model as the t3 = 0 limit."""

__version__ = "0.1.0"

from .magnetic_algebra import (
    BlochMomentum,
    Flux,
    HofstadterModel,
    build_hamiltonian,
    clock_shift,
    inversion_check,
    modular_inverse,
)
from .spectrum import (
    BandOverlapError,
    BandSpectrum,
    ChambersData,
    ChambersMismatch,
    GapRecord,
    band_edge_kpoints,
    chambers_polynomial,
    compute_bands,
    compute_bands_dense,
    compute_gaps,
    det_closed_form,
    gaps_to_csv,
    spectrum_to_json,
)
from .chern import (
    ChernResult,
    EdgeResult,
    GapClosed,
    GridDegeneracy,
    QuantizationFailure,
    TransportResult,
    WindingFailure,
    band_chern_fhs,
    band_chern_transport,
    certify_gap,
    chern_bound,
    edge_chern,
    edge_chern_table,
    gap_chern_table,
    gap_residue_transport,
)
from .diophantine import (
    FragmentationReport,
    ResidueClass,
    StredaOutcome,
    Window,
    chain_window,
    fragmentation_report,
    resolve_in_window,
    solve_residue,
    square_window,
    streda_check,
    triangular_window,
)
from .butterfly import (
    PHI_D_SYMMETRIC,
    ButterflyConfig,
    ButterflyDiagram,
    build_diagram,
    detect_coloring_errors,
    enumerate_fluxes,
    read_records_jsonl,
    sweep_to_jsonl,
)
from .render import chern_color, render, render_jsonl
