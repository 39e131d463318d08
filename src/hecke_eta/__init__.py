"""Eta analogues for the Hecke groups H(sqrt(D)), D = 1 mod 4 fundamental.

Exact Fourier coefficients in Z[(1+sqrt(D))/2], an independent
partition-convolution recomputation, and numeric verification of the
transformation laws.
"""

from .quad_ring import RingElem, RingError, embed_real
from .characters import (
    CharTable,
    CharacterError,
    build_char_table,
    is_fundamental,
    kronecker,
)
from .cyclotomic import (
    CycPoly,
    PeriodPair,
    ProjectionError,
    cyc_mul,
    gauss_element,
    period_polynomials,
    project_to_quad,
    trace,
)
from .lseries import LValueRecord, l_minus_one, l_prime_zero
from .partitions import (
    PartitionTables,
    build_partition_tables,
    length_distribution,
    p_nr_table,
    p_table,
    pentagonal_terms,
)
from .qseries import (
    QSeries,
    SeriesError,
    delta5_series,
    eta_series,
    series_mul,
    series_pow,
    tau5_values,
)
from .oracle import CycSeries, a_via_convolution
from .analytic import (
    GroupWord,
    bound_envelope,
    check_inversion,
    check_translation,
    check_u_gamma,
    envelope_constants,
    eval_eta_numeric,
    predicted_u,
    check_phi_relation,
    word_matrix,
)

__version__ = "0.1.0"
