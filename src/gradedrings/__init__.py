"""Exact-arithmetic toolkit for generating numbers of group-graded rings:
rank certificates and their transformations, translation rings with
Folner-based compression, paradoxical-decomposition search on Cayley-ball
truncations, and rewriting engines for Leavitt and generalized Weyl
algebras.
"""

from .groups import (BaumslagSolitar, Cyclic, DirectProduct, FreeAbelian,
                     FreeGroup, Group, group_from_spec, set_product)
from .rings import (IntegerModRing, IntegerRing, MatrixRing, ProductRing,
                    RankCertificate, RationalRing, Ring, RingMatrix,
                    block_down_certificate, block_up_certificate,
                    extend_certificate, hom_certificate, mat_mul,
                    opposite_certificate, product_certificate,
                    verify_certificate)
from .monoids import (MnklParams, cnk_generating_number, cnk_leq,
                      cnk_normalize, mnkl_leq, mnkl_phi, mnkl_psi)
from .amenability import (FolnerWitness, InjectionWitness, SubsetPredicate,
                          bs_X, bs_X0, bs_example_check,
                          find_two_to_one_injection, folner_search,
                          rosenblatt_find, whole_group)
from .translation import (CoeffFn, CompressionInput, TranslationRing,
                          collapse_matrices, compress_certificate,
                          finite_group_iso, tr_entry, tr_transpose)
from .graded import (CrossedProductRing, CrossedSystem,
                     endo_graded_construction, group_ring,
                     group_ring_augmentation, psi_embedding_check,
                     strong_grading_check, verify_crossed_system)
from .special_algebras import (LeavittRing, WeylRing, leavitt_matrix_units,
                               leavitt_rank_certificate, weyl_component_basis,
                               weyl_coordinates, weyl_phi0)

__version__ = "0.1.0"
