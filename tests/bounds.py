"""The bounds the acceptance criteria and the CLI tests state, each named once.

Each has the same value in one or more other places: a golden table under
src/expansionlab/data/golden, propagation.CLOSED_FORM_TOL, or a constant of
bench/workloads.py. test_acceptance.test_each_bound_has_one_value holds them
equal.
"""

ONE_STEP_TOL = 1e-12            # criterion 3; propagation.CLOSED_FORM_TOL
MAGNITUDE_TOL = 1e-9            # criterion 1; landau_planewave.json
EXPONENT_RANGE = [1.9, 2.1]     # criterion 4; box_dipole_audit.json
MAX_NORM_DEV = 1e-10            # criterion 5; unitary_contrast.json
JUMP_TOL = 1e-8                 # criterion 6; gauge_jump.json
COVARIANT_TOL = 1e-10           # criterion 6; gauge_jump.json
CURVE_TOL = 1e-8                # criterion 7; phase_fit.json
STATIONARY_TOL = 1e-10          # criterion 7; phase_fit.json
ROUNDTRIP_TOL = 1e-10           # box_roundtrip.scn parseval defect
GAUSSIAN_PARSEVAL_TOL = 1e-6    # box_gaussian.scn
GAUSSIAN_ROUNDTRIP_TOL = 1e-5   # box_gaussian.scn
