"""configforge: intersection configurations realized in powers of Z wr Z.

Given any 0/1 prescription on the nonempty subsets of {1..n}, the
realization pipeline builds explicit subgroups of a direct power of the
wreath product Z wr Z whose subset intersections are finitely generated
exactly where prescribed, and certifies the construction with an exact,
re-runnable decision procedure.
"""

from .configuration import (
    Configuration,
    enumerate_configurations,
    mask_elements,
    subset_mask,
)
from .realization import (
    PermutationalAut,
    RealizationCertificate,
    TWIST_AUT,
    embed_orbit_roots,
    fixed_subgroup,
    intersection_spec,
    realize,
    realize_atom,
    subset_checks,
    verify,
)
from .subgroups import (
    Edge,
    SubgroupSpec,
    analyze,
    nonfg_witness,
    sample,
)
from .wreath import (
    BASE_NOT_FG,
    BASE_ONLY,
    CYCLIC,
    FULL_FACTOR,
    IDENTITY,
    IDENTITY_AUT,
    TRIVIAL,
    WHOLE_GROUP,
    CentralizerClass,
    ConjugationAut,
    WreathElement,
    classify_centralizer,
    cyclic_centralizer_generator,
    delta,
    in_free_abelian_span,
)

__version__ = "0.1.0"

__all__ = [
    "BASE_NOT_FG",
    "BASE_ONLY",
    "CYCLIC",
    "CentralizerClass",
    "Configuration",
    "ConjugationAut",
    "Edge",
    "FULL_FACTOR",
    "IDENTITY",
    "IDENTITY_AUT",
    "PermutationalAut",
    "RealizationCertificate",
    "SubgroupSpec",
    "TRIVIAL",
    "TWIST_AUT",
    "WHOLE_GROUP",
    "WreathElement",
    "analyze",
    "classify_centralizer",
    "cyclic_centralizer_generator",
    "delta",
    "embed_orbit_roots",
    "enumerate_configurations",
    "fixed_subgroup",
    "in_free_abelian_span",
    "intersection_spec",
    "mask_elements",
    "nonfg_witness",
    "realize",
    "realize_atom",
    "sample",
    "subset_checks",
    "subset_mask",
    "verify",
]
