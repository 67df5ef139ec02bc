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
SQUARE_PAIRS = [(p, q) for q in range(1, 14) for p in range(1, q + 1)
                if math.gcd(p, q) == 1]


@pytest.fixture(scope="session")
def computed_diagram_13():
    """Ground-truth triangular diagram: every flux q <= 13, FHS resolver."""
    cfg = ButterflyConfig(q_max=13, resolver="computed", computed_q_max=13,
                          phi_d=PHI_D_SYMMETRIC, jobs=2)
    return build_diagram(cfg)


@pytest.fixture(scope="session")
def triangular_tables(computed_diagram_13):
    """(p, q) -> {j: sigma} for open interior gaps, plus closed-gap lists."""
    tables = {}
    for rec in computed_diagram_13.records:
        entry = tables.setdefault((rec.p, rec.q), SimpleNamespace(
            cherns={}, closed=[], records=[]))
        entry.records.append(rec)
        if 0 < rec.j < rec.q:
            if rec.closed:
                entry.closed.append(rec.j)
            elif rec.chern is not None:
                entry.cherns[rec.j] = rec.chern
    return tables


@pytest.fixture(scope="session")
def square_tables():
    """t3 = 0 model: gap Cherns and records for every flux with q <= 13."""
    tables = {}
    for p, q in SQUARE_PAIRS:
        model = HofstadterModel(Flux(p, q), t3=0.0)
        gaps = compute_gaps(compute_bands(model))
        cherns = {j: r.value for j, r in gap_chern_table(model, gaps).items()}
        tables[(p, q)] = SimpleNamespace(model=model, gaps=gaps, cherns=cherns)
    return tables
