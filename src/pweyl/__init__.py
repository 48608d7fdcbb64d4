"""Exact computation of p-supports of cyclic modules over the Weyl algebra.

The package reduces a cyclic module over A_n(Q) modulo a prime, intersects
the resulting left ideal with the large center of A_n(F_p), and reports the
geometry of that central annihilator on the twisted cotangent space:
dimension, coisotropy for the canonical symplectic bracket, the Lagrangian
verdict, conicality, and generic fiber ranks, alongside the classical
characteristic variety over Q for comparison.
"""

from .cgb import (
    CIdeal,
    buchberger,
    frobenius_root,
    krull_dim,
    radical_member,
)
from .center import (
    AnnihilatorResult,
    FrobeniusTwist,
    central_annihilator,
    central_annihilator_exact,
    central_annihilator_truncated,
    twisted_names,
)
from .corpus import CorpusEntry, load_corpus, run_corpus
from .errors import (
    BadPrime,
    DimensionMismatch,
    DivisionByZero,
    EmptySupport,
    IndexOutOfRange,
    MixedAlphabets,
    NoPointsFound,
    NonGlobalOrder,
    NotAField,
    NotDeformationDivisible,
    NotUnit,
    ParseError,
    PweylError,
    RingMismatch,
    ZeroInput,
)
from .mpoly import MPoly, PolyRing
from .orders import GrevLex, Weighted
from .parser import parse_operator, parse_twisted, parse_weyl
from .poisson import (
    canonical_bracket,
    coisotropy_check,
    deformation_bracket,
)
from .psupport import (
    CharVariety,
    DModuleSpec,
    SupportReport,
    characteristic_variety,
    generic_rank,
    is_conical,
    p_support,
    specialize_mod_p,
)
from .rings import QQ, GaloisField, Rationals, Zmod, extension_field, is_prime
from .weyl import WeylOp, is_central
from .wgb import LeftIdeal, initial_weighted, left_groebner, left_nf

__version__ = "0.1.0"
