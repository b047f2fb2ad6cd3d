"""Dimensionally homogeneous Jacobians for constrained parallel manipulators."""

from .dhj import (DexterityRecord, assemble_dhj, condition_number, condition_numbers_at,
                  dexterity_at, dimensional_audit, singular_values, unit_scaling_experiment)
from .forward_map import ForwardJacobian, block_Ja, invert_full
from .model import (LimbKinematics, LimbSpec, ManipulatorConfig, MobilityInputs,
                    PlatformPose, load_config, resolve_pose, tsai_mobility)
from .pointmap import PointVelocityMap, build_Vp, point_velocity
from .screws import InverseJacobian, actuation_row_units, build_inverse_jacobian
from .selection import (ALTERNATE_PLAN, OPPOSITE_PLAN, PRIMARY_PLAN,
                        SelectionMatrix, SelectionPlan, build_selection_matrix,
                        enumerate_pairings, nominal_map)
from .verify import (brute_force_dhj, fd_actuation_jacobian, fd_constraint_tangent,
                     forward_refine, run_validation)

__all__ = [
    "ALTERNATE_PLAN", "DexterityRecord", "ForwardJacobian", "InverseJacobian",
    "LimbKinematics", "LimbSpec", "ManipulatorConfig", "MobilityInputs",
    "OPPOSITE_PLAN", "PRIMARY_PLAN", "PlatformPose", "PointVelocityMap",
    "SelectionMatrix", "SelectionPlan", "actuation_row_units", "assemble_dhj",
    "block_Ja", "brute_force_dhj", "build_Vp", "build_inverse_jacobian",
    "build_selection_matrix", "condition_number", "condition_numbers_at", "dexterity_at",
    "dimensional_audit", "enumerate_pairings", "fd_actuation_jacobian",
    "fd_constraint_tangent", "forward_refine", "invert_full", "load_config",
    "nominal_map", "point_velocity", "resolve_pose", "run_validation", "singular_values",
    "tsai_mobility", "unit_scaling_experiment",
]

__version__ = "0.1.0"
