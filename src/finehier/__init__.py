"""Iterated difference hierarchies of Q-partitions on finite T0 spaces.

Desk-scale, exact machinery: CNF ordinal arithmetic, a term algebra with a
tree-morphism comparison oracle, finite Alexandrov spaces with Baire
category and continuous reducibility, nested set families with mind-change
evaluation, and exhaustive suites that confirm the structure theorems on
every small instance.
"""

from .ordinals import (Ordinal, WadgeOrdinal, ZERO, ONE, OMEGA, ord_cmp,
                       ord_add, ord_star, omega_power, from_int,
                       parse_ordinal, ord_to_str, f_map, wadge_cmp,
                       ZeroOrdinalError, OrdinalParseError)
from .quasiorder import Quasiorder, antichain, chain
from .terms import (Const, Shift, Fq, Fo, Decomposition, term_rank,
                    term_decompose, term_leq, TermOrder, term_tree,
                    term_paths, term_apply_aut, parse_term, term_to_str,
                    enumerate_terms, is_singleton, singleton_value,
                    SingletonTermError, NotAutomorphismError, TermParseError)
from .labeled_trees import LabeledTree, hom_leq, hom_leq_exhaustive, tree_to_dot
from .spaces import (FinSpace, ContMap, QPartition, sierpinski, discrete,
                     product, is_cos, is_meager, is_meager_bruteforce,
                     cat_quantifier, wadge_leq, enum_cos, enumerate_posets,
                     monotone_maps, mask_points, points_mask,
                     NotOpenSurjectionError, DifferentSpacesError,
                     DifferentQError)
from .hierarchy import (Base, borel, TFamily, components, reduce_tfamily,
                        level_has_reduction, UFamily, WHOLE, NotDetermined,
                        validate_family, family_eval, family_restrict,
                        family_reduct, family_pullback, family_pushforward,
                        member, enumerate_families, level_mask, level_set,
                        level_set_enum, InvalidFamilyError, NoReductError)
from .suites import SuiteConfig, SuiteReport, run_suite, UnknownSuiteError

__version__ = "0.1.0"
