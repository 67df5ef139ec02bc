"""The benchmark workloads: sweep configurations and their reference models.

Each workload is a list of sweeps.  A sweep is the keyword arguments of
``hofbutter.ButterflyConfig`` (always ``jobs=1``) plus the name of the
model in ``reference_chern.json`` that checks its colors.  The sweep
inputs do not depend on the seed; the seed draws the momenta of the
containment check and the sites of the self-test corruptions.
"""

import math

PHI_SYM = -math.pi / 2

WORKLOADS = {
    # The bulk of the butterfly: closed-form band edges, one window per
    # open gap, JSONL write and read, render and Streda audit.
    "sym_window": [
        {"config": {"q_max": 40, "phi_d": PHI_SYM, "computed_q_max": 0},
         "model": "sym"},
    ],
    # The shipped default resolver: odd q <= 16 fall back to FHS Chern
    # numbers with grid doubling, which dominates the run.
    "sym_fhs": [
        {"config": {"q_max": 9, "phi_d": PHI_SYM}, "model": "sym"},
    ],
    # Band edges by the determinant scan: isotropic (_oscillatory) and
    # anisotropic (_det_direct) at phi_d = 0.3, windows away from -pi/2.
    "generic_scan": [
        {"config": {"q_max": 36, "phi_d": 0.3, "computed_q_max": 0},
         "model": "gen"},
        {"config": {"q_max": 10, "phi_d": 0.3, "t1": 1.0, "t2": 0.8, "t3": 0.6,
                    "computed_q_max": 0},
         "model": "aniso"},
    ],
}


def is_symmetric_phase(phi_d: float) -> bool:
    """phi_d = -pi/2, where the model is inversion symmetric."""
    return abs(phi_d - PHI_SYM) < 1e-12
