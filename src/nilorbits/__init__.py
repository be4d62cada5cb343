"""Exact-arithmetic toolkit for nilpotent orbits, mixed gradings and
involutions of semisimple Lie algebras."""

from .exceptional import exceptional_lookup
from .gradings import (check_02, check_04, check_4k2, collapsing_defect,
                       decompose, decompose_classical, decompose_exceptional,
                       divisibility_report, grading_grid, upsilon)
from .involutions import (catalog, identify_ibn, maximal_rank,
                          orbit_meets_g1, pair_by_descriptor, pi_involution,
                          so_pair_ibn)
from .orbits import (ClassicalOrbit, Partition, centralizer_dims, half_orbit,
                     is_divisible, is_even, reductive_type,
                     wdd_from_partition)
from .roots import (SimpleType, beta_root, build_root_system, coxeter_number,
                    kappa_direct, kappa_root_count, principal_layer)
from .verify import SUITES, run_suite

__version__ = "0.1.0"

__all__ = [
    "SimpleType", "build_root_system", "coxeter_number", "kappa_direct",
    "kappa_root_count", "principal_layer", "beta_root",
    "Partition", "ClassicalOrbit", "wdd_from_partition", "is_even",
    "centralizer_dims", "reductive_type", "is_divisible", "half_orbit",
    "exceptional_lookup",
    "catalog", "maximal_rank", "pi_involution", "identify_ibn",
    "so_pair_ibn", "orbit_meets_g1", "pair_by_descriptor",
    "decompose", "decompose_classical", "decompose_exceptional",
    "grading_grid", "check_02", "check_04",
    "check_4k2", "upsilon", "divisibility_report", "collapsing_defect",
    "SUITES", "run_suite",
]
