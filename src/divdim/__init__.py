"""Constructive dimension certificates for the divisibility order on {1..n}."""

from .base import (
    DomainError,
    PreconditionError,
    ResourceLimitError,
    RetryBudgetError,
    Verdict,
)
from .coverfree import (
    CoverBounds,
    FieldSpec,
    SetFamily,
    build_field,
    eff_family,
    eval_cover_bounds,
    greatest_prime_power,
    max_cover_free_bruteforce,
    verify_cover_free,
)
from .divposets import (
    BoostParams,
    CoverFreeEmbedding,
    DivPosetSpec,
    boost_params,
    build_div_poset,
    coverfree_embedding,
    smooth_numbers,
)
from .multisets import (
    Decomposition,
    DownsetFamily,
    Multiset,
    Permutation,
    SuitableSet,
    colex_extension,
    decompose,
    min_suitable,
    random_downset,
    suitable_to_realiser,
    support_family,
    verify_suitable,
)
from .pipeline import (
    BoundRow,
    PipelinePlan,
    RealiserCertificate,
    VerificationReport,
    bound_table,
    build_certificate,
    plan,
    random_suitable_interval,
    verify_certificate,
)
from .posets import (
    DimensionResult,
    FinitePoset,
    LinearExtension,
    Realiser,
    exact_dimension,
    is_realiser,
    poset_from_edges,
    product_order,
    verify_embedding,
)
from .primes import PrimeTable, factorize, sieve_primes, squarefree_part

__version__ = "0.1.0"
