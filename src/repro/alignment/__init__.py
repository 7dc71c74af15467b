"""Shape-symmetry reduction: translation, rotation and permutation removal.

Implements §4.2/§5.2 of Harder & Polani (2012): particle configurations are
mapped to representatives of their orbit under ``F = ISO+(2) × S*_n`` so that
multi-information is measured between *shape* observers rather than raw
coordinates.  On wrapped domains (periodic torus, channel) the group is
different — translations mod L on the periodic axes plus per-axis flips —
and the same entry points dispatch to the torus-aware reduction when a
``domain`` is passed (see :mod:`repro.alignment.torus`).
"""

from repro.alignment.procrustes import (
    RigidTransform,
    alignment_error,
    apply_rigid,
    kabsch_2d,
    kabsch_2d_stack,
)
from repro.alignment.correspondences import (
    TypeMatcher,
    assignment_correspondence,
    correspondence_distances,
    is_type_preserving_permutation,
    nearest_neighbor_correspondence,
)
from repro.alignment.lockstep import BatchAlignment
from repro.alignment.icp import ICPResult, TypeAwareICP, lift_with_types
from repro.alignment.torus import TorusAligner, TorusICPResult, TorusTransform
from repro.alignment.symmetry import (
    ReducedEnsemble,
    SnapshotAlignment,
    align_snapshot,
    center_configurations,
    reduce_ensemble,
    select_reference,
    select_reference_wrapped,
)

__all__ = [
    "RigidTransform",
    "kabsch_2d",
    "kabsch_2d_stack",
    "apply_rigid",
    "alignment_error",
    "TypeMatcher",
    "nearest_neighbor_correspondence",
    "assignment_correspondence",
    "is_type_preserving_permutation",
    "correspondence_distances",
    "TypeAwareICP",
    "ICPResult",
    "BatchAlignment",
    "lift_with_types",
    "TorusAligner",
    "TorusICPResult",
    "TorusTransform",
    "center_configurations",
    "select_reference",
    "select_reference_wrapped",
    "align_snapshot",
    "SnapshotAlignment",
    "reduce_ensemble",
    "ReducedEnsemble",
]
