"""Finite groups, fusion systems, partial groups and localities, with an
executable verification suite over a corpus of small concrete groups.

The five public layers:

* :mod:`plocal.groups` - permutation groups, each held as its home and a
  mask over the home's sorted elements (one type, ``Subgroup``, for groups
  and subgroups alike, its Perms a view for the edges), subgroup lattices,
  Sylow subgroups, automorphism groups, subnormality, group K-normalizers;
* :mod:`plocal.fusion` - fusion systems as explicit categories, saturation,
  K-normalizer subsystems, centric/subcentric sets, p-power index,
  normal subsystems;
* :mod:`plocal.locality` - localities, the one partial-group type, with
  their one word rule; a group is a locality and L_Delta(G) its
  restriction; the restricted K-normalizers, partial normal subgroups
  (each an int mask over the ambient group), product subsystems;
* :mod:`plocal.verify` - one checker per verified statement and the suite
  driver;
* :mod:`plocal.cli` - corpus parsing and the command-line front end
  (console script ``plocal``).
"""

from .errors import PLocalError
from .perm import Perm, perm_from_cycles
from .groups import (
    AutGroup,
    Subgroup,
    all_subgroups,
    aut_group,
    centralizer,
    core_Op,
    generate_group,
    group_K_normalizer,
    inn_group,
    is_characteristic_p,
    is_subnormal,
    normalizer,
    subnormal_chain,
    sylow_subgroup,
)
from .fusion import (
    FusionSystem,
    K_normalizer_subsystem,
    centralizer_subsystem,
    centric_set,
    close_generated,
    fusion_of_group,
    has_p_power_index,
    hyperfocal_subgroup,
    is_fully_K_normalized,
    is_normal_subsystem,
    is_saturated,
    is_strongly_closed,
    is_weakly_normal,
    normalizer_subsystem,
    subcentric_set,
)
from .locality import (
    Locality,
    S_f,
    bC,
    bN,
    bN_K,
    build_group_locality,
    fusion_of_partial,
    group_locality,
    is_partial_normal,
    K_normalizer_partial,
    product_fusion,
    product_partial,
    restrict,
    verify_locality,
    verify_subcentric_locality,
)
from .report import VerificationReport

__version__ = "0.1.0"
