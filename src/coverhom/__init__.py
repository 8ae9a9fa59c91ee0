"""coverhom: exact-arithmetic witnesses for finite covers whose d-primitive
homology is a proper subspace of the full first homology.

The pipeline has three layers:

1. truncated algebras over F_r and their unit groups (``algebra``,
   ``units``), with the non-vanishing polynomial machinery
   (``nonvanishing``) that turns linear data into characters of the
   central slice;
2. embeddings of free and surface groups into those unit groups and the
   witness bundles (G, C, rho, alpha, psi, e) built from them, including
   the CRT lift to square-free moduli (``witness``);
3. finite covers attached to a quotient, their homology with deck action,
   elevation classes, and the isotypic-projection certificate that the
   d-primitive classes span a proper subspace (``covers``).

``covers`` is the one module that needs numpy.  It is imported on first
use of one of its names, so ``from coverhom import build_cover`` works as
before, and the commands that never reach a cover (every CLI command but
``cover-report`` and ``witness-e2e``) start without numpy.
"""

from .algebra import (
    AlgebraSpec,
    AlgElement,
    free_spec,
    m_spec,
    one,
    power,
    quat_spec,
    quat_term,
    random_element,
    sorted_spec,
    symbol,
    zero,
)
from .errors import (
    CoverhomError,
    InvalidConfig,
    NotAUnit,
    NotInC,
    ObservationViolation,
    PropertyViolation,
    SpecMismatch,
    TooLarge,
    UnsupportedMonomialType,
)
from .modular import catalan_mod, crt_coefficients
from .nonvanishing import (
    MonomialType,
    Poly,
    build_nonvanishing,
    canonicalize_pair_monomials,
    classify,
    minimal_k,
    verify_nonvanishing,
)
from .units import (
    CentralCharacter,
    abelianization,
    character_for_monomial,
    character_from_poly,
    in_central_subgroup,
    verify_power_character,
)
from .witness import (
    Alphabet,
    GroupWord,
    WitnessBundle,
    assemble_witness_free,
    assemble_witness_surface,
    catalan_series,
    check_witness_word,
    collapse_to_genus_two,
    crt_lift,
    generator_word,
    magnus_image,
    quaternion_image,
    random_word,
    reduced_words,
    surface_relator,
    verify_quat_power_identity,
    verify_relator_kill,
    verify_witness,
    word_from_exponents,
)

__version__ = "0.1.0"

# the names resolved from ``covers`` on first use (PEP 562)
_COVERS_NAMES = frozenset((
    "CoverComplex",
    "FiniteQuotient",
    "IsotypicProjector",
    "PermImage",
    "ResidueImage",
    "UnitImage",
    "build_cover",
    "central_slice",
    "d_primitive_predicate",
    "elevation_class",
    "gaschutz_check",
    "isotypic_projection_check",
    "nonkernel_predicate",
    "orbit_span_rank",
    "quotient_from_bundle",
    "quotient_from_json",
    "rank_over_rationals",
))


def __getattr__(name):
    if name in _COVERS_NAMES:
        from . import covers

        return getattr(covers, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
