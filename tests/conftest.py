import math
from types import SimpleNamespace

import pytest

from hofbutter import (
    ButterflyConfig,
    Flux,
    HofstadterModel,
    PHI_D_SYMMETRIC,
    build_diagram,
    compute_bands,
    compute_gaps,
    gap_chern_table,
)

# reduced fluxes with q <= 13, all coprime p
FLUXES_13 = [(p, q) for q in range(1, 14) for p in range(1, q + 1)
             if math.gcd(p, q) == 1]


@pytest.fixture(scope="session")
def computed_diagram_13():
    """Triangular diagram of every flux q <= 13, each gap colored by the
    computed resolver (edge-state winding)."""
    cfg = ButterflyConfig(q_max=13, resolver="computed", phi_d=PHI_D_SYMMETRIC, jobs=2)
    return build_diagram(cfg)


@pytest.fixture(scope="session")
def triangular_tables():
    """Ground truth at phi_d = -pi/2, FHS per flux for every q <= 13:
    (p, q) -> {j: sigma} of the open interior gaps, the closed interior
    gaps and the gap records."""
    tables = {}
    for p, q in FLUXES_13:
        model = HofstadterModel(Flux(p, q), PHI_D_SYMMETRIC)
        gaps = compute_gaps(compute_bands(model))
        tables[(p, q)] = SimpleNamespace(
            cherns={j: r.value for j, r in gap_chern_table(model, gaps).items()},
            closed=[r.j for r in gaps if 0 < r.j < q and r.closed], records=gaps)
    return tables


@pytest.fixture(scope="session")
def square_tables():
    """t3 = 0 model: gap Cherns and records for every flux with q <= 13."""
    tables = {}
    for p, q in FLUXES_13:
        model = HofstadterModel(Flux(p, q), t3=0.0)
        gaps = compute_gaps(compute_bands(model))
        cherns = {j: r.value for j, r in gap_chern_table(model, gaps).items()}
        tables[(p, q)] = SimpleNamespace(model=model, gaps=gaps, cherns=cherns)
    return tables
