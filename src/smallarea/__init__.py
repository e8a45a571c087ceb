"""Small-area population synthesis and poverty indicator toolkit.

Reweights survey microdata to zone-level census constraint tables via
iterative proportional fitting, integerizes the fractional weights with
truncate-replicate-sample, validates the synthetic populations against
census aggregates, and computes zone-level income and poverty measures.
"""

__version__ = "0.1.0"

import os

# numpy starts OpenBLAS's thread pool when it is imported, and the package
# makes no BLAS call (`grep -nE " @ |np\.dot|matmul|einsum|linalg"` finds
# none in src/smallarea), so one thread saves the pool's start-up in every
# process. This runs before the submodules import numpy; a value already in
# the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .schema import (
    Schema,
    VariableDef,
    ConstraintTable,
    SurveyDataset,
    ConsistencyReport,
    SchemaError,
    check_consistency,
    rescale_constraints,
)
from .ipf import WeightMatrix, ConvergenceInfo, ipf_zone, ipf_all, tae
from .integerize import SyntheticPopulation, RngSpec, trs_zone, synthesize
from .validate import r_squared, sei, t_test_equal_variance
from .indicators import (
    equivalize,
    weighted_median,
    percent_change,
)
