"""Dimensionally homogeneous Jacobians for constrained parallel manipulators."""

from .dhj import (DexterityRecord, assemble_dhj, condition_numbers_at, dexterity_at,
                  singular_values, unit_scaling_experiment)
from .forward_map import ForwardJacobian, block_Ja, invert_full
from .model import (LimbSpec, ManipulatorConfig, MobilityInputs, PlatformPose, load_config,
                    resolve_pose, tsai_mobility)
from .pointmap import build_Vp
from .screws import InverseJacobian, build_inverse_jacobian
from .selection import (ALTERNATE_PLAN, OPPOSITE_PLAN, PRIMARY_PLAN,
                        SelectionMatrix, SelectionPlan, build_selection_matrix, nominal_map)
from .verify import brute_force_dhj, fd_oracles, forward_refine, run_validation

__all__ = [
    "ALTERNATE_PLAN", "DexterityRecord", "ForwardJacobian", "InverseJacobian",
    "LimbSpec", "ManipulatorConfig", "MobilityInputs",
    "OPPOSITE_PLAN", "PRIMARY_PLAN", "PlatformPose",
    "SelectionMatrix", "SelectionPlan", "assemble_dhj",
    "block_Ja", "brute_force_dhj", "build_Vp", "build_inverse_jacobian",
    "build_selection_matrix", "condition_numbers_at", "dexterity_at", "fd_oracles",
    "forward_refine", "invert_full", "load_config", "nominal_map", "resolve_pose",
    "run_validation", "singular_values", "tsai_mobility", "unit_scaling_experiment",
]

__version__ = "0.1.0"
