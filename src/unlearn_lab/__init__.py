"""Exact machine-unlearning schemes and dimension computation at desk scale."""

from .core import (
    ClassHandle,
    Dataset,
    FiniteClass,
    FiniteClassOracle,
    OracleError,
    Pair,
    UnknownItemError,
    as_oracle,
    count_bits,
    dataset_bits,
    encoding_bits,
    erm_lexmin,
    is_realizable,
    pair_bits,
    version_space,
)
from .dimensions import (
    CAP_EXCEEDED,
    DimReport,
    compute_dims,
    eluder_dimension,
    hollow_star_number,
    littlestone_dimension,
    min_identification_set,
    star_number,
    vc_dimension,
)
from .compression import (
    NotAVersionSpaceError,
    VsEncoding,
    canonical_dataset,
    eluder_subsequence,
    lu_to_vs_adapter,
    merge,
    mergeable_decode,
    mergeable_to_vs_decode,
    mergeable_triple,
    star_prune,
    unrealizable_marker,
    vs_decode,
    vs_encode,
)
from .schemes_central import (
    BoundedDeletionScheme,
    CriticalIndex,
    PreconditionError,
    QueryTooLargeError,
    TrivialErmScheme,
    TrivialScheme,
    enumerate_critical_sets,
    minimal_unrealizable_core,
)
from .schemes_ticketed import (
    ChainAux,
    ChainScheme,
    ChainTicket,
    ErmMerkleScheme,
    MerkleScheme,
    Ticket,
    TicketError,
    TicketView,
)
from .geometry import (
    HalfspaceOracle,
    SeparabilityCapExceeded,
    face_centroid_id,
    halfspace_family_dataset,
    margin,
    separable_bruteforce,
    simplex_face_domain,
    strictly_separable,
)
from .instances import (
    AdversaryRun,
    LbInstance,
    all_labelings,
    eluder_lb_instance,
    halfspace_lb_instance,
    parity_class,
    random_finite_class,
    run_adversary,
    shatter_lb_instance,
    thresholds_1d,
    tilu_ub_class,
    vclb_instance,
    whitebox_erm_reduction,
)

__version__ = "0.1.0"
