"""Typed failures of the kinematics pipeline, and the ``Status`` that records them per pose.

The stages record the failure of each pose of a stack, so that grids stay
rectangular; the per-pose entry points raise it, the CLI maps it onto an exit code.
``Stacked`` pairs a stage's values over a stack with their ``Status``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np


class KinematicsError(Exception):
    """Base class for all pipeline failures."""

    #: short machine-readable code used in sweep CSV status columns
    code = "error"


class ConfigError(KinematicsError):
    code = "config_error"


#: the most characters of a refused input that an error message echoes
ECHO_CHARS = 40


def quoted(value) -> str:
    """``repr(value)``, or its first ECHO_CHARS characters and its length where longer."""
    text = repr(value)
    return text if len(text) <= ECHO_CHARS else f"{text[:ECHO_CHARS]}... ({len(text)} characters)"


class Unreachable(KinematicsError):
    """Pose outside the rotational envelope or the psi limit of the PRS rail planes, or IK
    discriminant negative."""

    code = "unreachable"


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


class DegeneratePair(KinematicsError):
    """Selection pair with coincident x-coordinates; weights undefined."""

    code = "degenerate_pair"


class StepTooLarge(KinematicsError):
    """Finite-difference step left the feasible workspace."""

    code = "step_too_large"


class NoForwardSolution(KinematicsError):
    """Newton refinement of the forward kinematics failed to converge."""

    code = "no_forward_solution"


@dataclass(frozen=True)
class Refusal:
    """Why one pose was refused: the error it raises alone, and what its message prints."""

    error: type[KinematicsError]
    message: Callable[[], str]  # builds the message when it is read
    limb: int = 0               # failing limb or plan row, 1-based; 0 when none
    value: float = math.nan     # the number the message prints, NaN when none


class Status:
    """Per-pose outcome of a stage over a stack of ``size`` poses, keyed by row.

    Every pose is "ok" until refused; a pose keeps the first refusal
    recorded for it, so stages that refuse in pipeline order leave each pose
    the refusal that the pipeline would raise at it alone.  A message is
    built when read, from arrays that must not change after it is recorded.
    """

    def __init__(self, size: int):
        self.size = size
        self.refusals: dict[int, Refusal] = {}

    def _new(self, bad) -> list[int]:
        """Rows where ``bad`` (N,) holds and the pose is not refused yet."""
        if not np.count_nonzero(bad):
            return []
        return [i for i in np.flatnonzero(bad).tolist() if i not in self.refusals]

    def refuse(self, bad, error, describe, value=math.nan) -> None:
        """Refuse each pose where ``bad`` (N,) holds; ``describe(i)`` is its message."""
        for i in self._new(bad):
            v = value[i] if np.ndim(value) else value
            self.refusals[i] = Refusal(error, partial(describe, i), value=float(v))

    def refuse_first(self, bad, error, describe, value) -> None:
        """Refuse each pose where ``bad`` (N, m) holds for a limb or plan row, at the first.

        Entry ``k`` (0-based) of pose ``i`` has message ``describe(i, k)``, value ``value[i][k]``.
        """
        if not np.count_nonzero(bad):
            return
        for i in self._new(bad.any(axis=-1)):
            k = int(bad[i].argmax())
            self.refusals[i] = Refusal(error, partial(describe, i, k), k + 1, float(value[i][k]))

    def gather(self, owner, size: int, wrap=None) -> Status:
        """The refusals of this stack passed on to the poses that own them, in a stack of ``size``.

        Pose ``i`` belongs to pose ``owner[i]`` (to none when negative).  An owner
        keeps the refusal of its first refused pose, as ``wrap(i, refusal)`` when given.
        """
        out = Status(size)
        for i, r in sorted(self.refusals.items()):
            o = int(owner[i])
            if o >= 0 and o not in out.refusals:
                out.refusals[o] = r if wrap is None else wrap(i, r)
        return out

    def take(self, index, wrap=None) -> Status:
        """The refusals of this stack passed on by position: pose ``i`` of the result has the
        refusal of pose ``index[i]`` (none where it is negative), as ``wrap(refusal)`` when given.

        Unlike ``gather``, several poses may take the refusal of one.
        """
        out = Status(len(index))
        if self.refusals:
            for i, j in enumerate(np.asarray(index).tolist()):
                r = self.refusals.get(j) if j >= 0 else None
                if r is not None:
                    out.refusals[i] = r if wrap is None else wrap(r)
        return out

    def then(self, *later: Status) -> Status:
        """These refusals, then those of each later stage in turn at the poses still ok."""
        out = Status(self.size)
        for stage in reversed(later):
            out.refusals.update(stage.refusals)
        out.refusals.update(self.refusals)
        return out

    @property
    def ok(self) -> np.ndarray:
        """Read-only mask (N,) of the poses not refused, built anew only when some pose is."""
        if not self.refusals:
            return _all_true(self.size)
        ok = np.ones(self.size, bool)
        ok[list(self.refusals)] = False
        ok.flags.writeable = False
        return ok

    def codes(self) -> list[str]:
        """"ok" or the ``KinematicsError.code`` of each pose."""
        codes = ["ok"] * self.size
        for i, r in self.refusals.items():
            codes[i] = r.error.code
        return codes

    def error(self, i: int) -> KinematicsError | None:
        """The error pose ``i`` raises alone, or None if it is ok."""
        r = self.refusals.get(i)
        return None if r is None else r.error(r.message())

    def check(self) -> None:
        """Raise the error of the first refused pose, if any."""
        if self.refusals:
            raise self.error(min(self.refusals))


@lru_cache(maxsize=16)
def _all_true(size: int) -> np.ndarray:
    """The read-only all-True mask (N,), shared by every ``Status`` of N poses with no refusal."""
    ok = np.ones(size, bool)
    ok.flags.writeable = False
    return ok


@dataclass(frozen=True)
class Stacked:
    """Values of a stage at a stack of poses: ``value`` leads with the stack axis and is
    NaN where ``status`` refuses a pose."""

    value: np.ndarray
    status: Status
