"""Exact Whittaker-module computations for untwisted affine Lie algebras.

The package is organized in four layers:

* :mod:`affwhit.seqspace` -- bi-infinite rational sequences, genericity
  verdicts, minimal annihilators of every non-generic sequence;
* :mod:`affwhit.rootdata` -- type-A root systems, parabolic nilradical
  combinatorics, Chevalley structure constants and the Killing form;
* :mod:`affwhit.affine` -- the affine algebra: loop generators, central
  element, derivation, and the two-cocycle bracket;
* :mod:`affwhit.engine` -- induced modules with straightening, exact
  Whittaker-vector solvers, and diagonal tensor products.

:mod:`affwhit.cli` exposes the ``affwhit`` command.
"""

from .seqspace import (
    BiSequence,
    BothInfiniteSupport,
    DegenerateAnnihilator,
    FinVector,
    FiniteSupport,
    GenericInput,
    Geometric,
    Recurrence,
    Scaled,
    SeqVerdict,
    SetVerdict,
    Shifted,
    Weighted,
    WindowRank,
    entry,
    is_generic,
    is_strongly_generic_set,
    member_strong_genericity,
    minimal_annihilator,
    pairing,
    reconstruct,
    sequence_from_literal,
    sequence_str,
    size,
    weighted,
    window_rank_check,
)
from .rootdata import (
    ChevalleyElement,
    ImproperParabolic,
    OutOfDomain,
    RootDatum,
    bracket_fin,
    build_datum,
    killing,
    root_str,
)
from .affine import (
    AffineAlgebra,
    AffineElement,
    C,
    D,
    H,
    X,
    bracket,
    gen_str,
    parse_gen,
)
from .engine import (
    SolveResult,
    TensorModule,
    Truncation,
    VACUUM,
    WhittakerModule,
    WhittakerSpec,
    element_str,
    mono_str,
    pair_str,
    tensor_whittaker_solve,
    whittaker_solve,
)

__version__ = "0.1.0"

__all__ = [
    "AffineAlgebra",
    "AffineElement",
    "BiSequence",
    "BothInfiniteSupport",
    "C",
    "ChevalleyElement",
    "D",
    "DegenerateAnnihilator",
    "FinVector",
    "FiniteSupport",
    "GenericInput",
    "Geometric",
    "H",
    "ImproperParabolic",
    "OutOfDomain",
    "Recurrence",
    "RootDatum",
    "Scaled",
    "SeqVerdict",
    "SetVerdict",
    "Shifted",
    "SolveResult",
    "TensorModule",
    "Truncation",
    "VACUUM",
    "Weighted",
    "WhittakerModule",
    "WhittakerSpec",
    "WindowRank",
    "X",
    "bracket",
    "bracket_fin",
    "build_datum",
    "element_str",
    "entry",
    "gen_str",
    "is_generic",
    "is_strongly_generic_set",
    "killing",
    "member_strong_genericity",
    "minimal_annihilator",
    "mono_str",
    "pair_str",
    "pairing",
    "parse_gen",
    "reconstruct",
    "root_str",
    "sequence_from_literal",
    "sequence_str",
    "size",
    "tensor_whittaker_solve",
    "weighted",
    "whittaker_solve",
    "window_rank_check",
]
