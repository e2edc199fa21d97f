"""cmtower: exact p-adic computations around formal-group division
towers, their discriminants and conductors, the coordinates and
uniformizers of CM fields split at p, and the exterior-product
congruence engine on units."""

from .errors import (CmtowerError, HenselError, InvariantError,
                     PrecisionError, ValidationError)
from .padic import (NewtonPolygon, PadicInt, PadicPoly, TruncSeries, Zp,
                    compositional_inverse, hensel_root, newton_polygon)
from .lubin_tate import (FormalGroupLaw, LTSeed, endo, group_law,
                         solve_intertwine, strict_iso)
from .cm_split import CMField, FieldElement, embed, pick_pi
from .local_tower import (ConductorReport, DivisionState, EisensteinTower,
                          LocalElement, character_conductor_floor,
                          divide_point, division_conductor, e_invariant,
                          filtration_step, level_disc)
from .galois_model import SubgroupSpec, TriElement, compose, tower_indices
from .unit_wedge import (CftOracle, UnitJet, WedgeTranscript, combine,
                         extend_to_g, reduce_wedge, wedge_step)
from .elliptic_fg import (EllipticFormalData, WeierstrassCurve,
                          cm_endo_elliptic, curve_group_law,
                          frobenius_check, match_lubin_tate,
                          point_count_ap)

__version__ = "1.0.0"
