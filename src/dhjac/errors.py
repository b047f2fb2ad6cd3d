"""Typed failures raised by the kinematics pipeline.

Sweep drivers map these onto per-cell status codes so that grids stay
rectangular; the CLI maps them onto exit codes.
"""


class KinematicsError(Exception):
    """Base class for all pipeline failures."""

    #: short machine-readable code used in sweep CSV status columns
    code = "error"


class ConfigError(KinematicsError):
    code = "config_error"


class Unreachable(KinematicsError):
    """Pose outside the rotational envelope or IK discriminant negative."""

    code = "unreachable"


class NoConvergence(KinematicsError):
    """Dependent-coordinate Newton solve exhausted its iteration budget."""

    code = "no_convergence"


class SingularLimb(KinematicsError):
    """Actuation-row denominator below threshold (limb screw reciprocal to rail)."""

    code = "singular_limb"


class SingularConfiguration(KinematicsError):
    """Stacked inverse Jacobian numerically singular (cond > 1e12)."""

    code = "singular_configuration"


class SingularSelection(KinematicsError):
    """J_dh numerically singular (cond > 1e12) although G^T is not: the selection loses rank."""

    code = "singular_selection"


class BlockSingular(KinematicsError):
    """Inner inverse of the block inversion formula does not exist."""

    code = "block_singular"


class DegeneratePoints(KinematicsError):
    """Chosen platform points collinear; cannot span the rigid motion."""

    code = "degenerate_points"


class DegeneratePair(KinematicsError):
    """Selection pair with coincident x-coordinates; weights undefined."""

    code = "degenerate_pair"


class MixedActuation(KinematicsError):
    """Limbs mix linear and rotational actuators; unit bookkeeping unsupported."""

    code = "mixed_actuation"


class StepTooLarge(KinematicsError):
    """Finite-difference step left the feasible workspace."""

    code = "step_too_large"


class NoForwardSolution(KinematicsError):
    """Newton refinement of the forward kinematics failed to converge."""

    code = "no_forward_solution"
