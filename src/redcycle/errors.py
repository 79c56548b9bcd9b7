"""Exception hierarchy for the redcycle package.

Every error raised by the library derives from :class:`RedcycleError`, so
callers (notably the CLI) can distinguish library failures from bugs.
"""

from __future__ import annotations


class RedcycleError(Exception):
    """Base class for all redcycle errors."""


class UnknownVertexError(RedcycleError):
    """A vertex label is not present in the quiver."""


class FrozenVertexError(RedcycleError):
    """Mutation was requested at a frozen vertex."""


class AlreadyFramedError(RedcycleError):
    """framed()/coframed() applied to a quiver that already carries a frame."""


class IntegerOverflowError(RedcycleError):
    """An arrow multiplicity left the signed 64-bit range.

    ``step`` is the index, in the mutation sequence being walked, of the step
    that left it; ``None`` when the error does not come from such a walk.
    """

    step: int | None = None


class SignCoherenceError(RedcycleError):
    """A C-matrix row mixed positive and negative entries.

    Sign-coherence is a theorem, so this always signals an implementation
    bug or corrupted input, never a legitimate state.
    """


class ZeroRowError(RedcycleError):
    """A C-matrix row was entirely zero (theoretically impossible)."""


class InternalContradictionError(RedcycleError):
    """An all-red C-matrix failed to be minus a permutation matrix."""


class CyclicQuiverError(RedcycleError):
    """An acyclic quiver was required but an oriented cycle exists."""


class LabelCollisionError(RedcycleError):
    """Two quivers being combined share a vertex label."""


class NegativeEntryError(RedcycleError):
    """An extension matrix contained a negative entry."""


class NotReddeningError(RedcycleError):
    """A sequence required to be reddening is not."""


class NonIdentityPermutationError(RedcycleError):
    """A reddening sequence was required to have the identity permutation."""


class CycleConstructionError(RedcycleError):
    """A built mutation cycle failed its own closure verification."""


class ForkStartError(RedcycleError):
    """Forkless exploration was started on a fork."""


class UnknownNameError(RedcycleError):
    """No catalog entry is registered under the requested name."""


class FormatError(RedcycleError):
    """Malformed quiver file or command-line argument."""


class OutOfRangeError(RedcycleError, ValueError):
    """A length bound or node budget outside its legal range."""


class ShapeError(RedcycleError, ValueError):
    """A matrix argument does not have the shape its use requires."""
