"""Exact computations with higher zigzag algebras, their quasi-hereditary
covers, and Koszul-type duals.

Everything runs over the rationals with deterministic path orderings, so
every reported dimension, resolution and presentation is exact and
reproducible byte for byte.
"""

from .algebra import (AlgebraInstance, Arrow, Element, NonTerminationError,
                      Path, Presentation, closed_form_cover_basis,
                      compute_basis, opposite_presentation,
                      presentation_borel, presentation_cover,
                      presentation_dual_conjectured, presentation_shifted_dual,
                      presentation_zigzag, quadratic_dual,
                      shifted_dual_membership, zigzag_hom_oracle)
from .extdual import (ExtClass, ExtTable, build_dual_from_ext,
                      check_degree_law, check_dual_koszul,
                      check_simple_costandard_dims, compare_dual,
                      dual_presentation_json, ext_table, perturb_presentation,
                      yoneda_product)
from .koszul import (KoszulReport, check_delta_koszul, check_koszul,
                     check_shifted_dual_lemmas, check_standard_koszul,
                     counterexample_presentation, fixture_brauer_line,
                     fixture_counterexample)
from .modules import (Resolution, RightModule, canonical_module,
                      costandard_module, delta_nabla_ext, gldim, is_linear,
                      minimal_resolution, projective_module, simple_module,
                      standard_module)
from .qh import QhReport, check_borel, check_cover, check_quasi_hereditary
from .quiver import (OrderData, Quiver, build_quiver, classify_vertices,
                     export_dot, order_data, vertex_name)

__version__ = "0.1.0"
