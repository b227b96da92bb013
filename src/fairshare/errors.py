"""Exception types shared across the package.

Everything derives from FairshareError so callers (and the CLI) can catch
one base class. Input problems and domain-rule violations get distinct
subclasses because they map to different process exit codes.
"""

from __future__ import annotations


class FairshareError(Exception):
    """Base class for all errors raised by this package."""


class BadParamsError(FairshareError):
    """A parameter is outside its documented range or malformed."""


class BadLengthError(FairshareError):
    """A value table does not have length 2**n_players."""


class EmptyNotZeroError(FairshareError):
    """The empty coalition's value is not zero."""


class NegativeValueError(FairshareError):
    """A coalition value is negative (or not a finite number)."""


class NotMonotoneError(FairshareError):
    """Removing a player increases a coalition's value.

    Carries the first violating pair as bitmasks: ``subset`` is the
    coalition with one player removed, ``superset`` contains it.
    """

    def __init__(self, subset: int, superset: int, message: str | None = None):
        self.subset = subset
        self.superset = superset
        super().__init__(
            message
            or f"value of coalition mask {superset} is below its subset mask {subset}"
        )


class OutOfRangeError(FairshareError):
    """A player index or coalition mask is out of bounds for this object."""


class EmptyCoalitionError(FairshareError):
    """An operation that needs a non-empty coalition received the empty one."""


class RhoOutOfRangeError(FairshareError):
    """The scaling exponent must satisfy 0 < rho <= 1."""


class ZeroMaxShapleyError(FairshareError):
    """All members have zero Shapley value but the coalition's value is positive.

    Cannot happen for a validated monotone game (member Shapley values sum
    to the coalition's value), so this guards against corrupted inputs.
    """


class DimensionMismatchError(FairshareError):
    """A reward matrix does not match the game's player count or table size."""


class NoFeasibleCandidateError(FairshareError):
    """The level-wise enumeration found no feasible efficient player.

    For monotone games this is unreachable; raising instead of silently
    continuing keeps the enumeration honest.
    """

    def __init__(self, coalition: int):
        self.coalition = coalition
        super().__init__(f"no feasible efficient player for coalition mask {coalition}")


class SizeLimitExceededError(FairshareError):
    """The requested computation exceeds the supported player count."""


class FileFormatError(FairshareError):
    """A game or reward-table file is structurally malformed."""

