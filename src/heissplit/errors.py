"""Exception types raised by the public API.

Every contract violation maps to a named subclass so callers can react to a
specific failure without string matching.  All of them derive from
:class:`HeisSplitError`, itself a ``ValueError``.
"""


class HeisSplitError(ValueError):
    """Base class for all errors raised by this package."""


class NotPrimeError(HeisSplitError):
    """An argument that must be prime is not."""


class PrimeOutOfRangeError(HeisSplitError):
    """A prime p at or above the supported bound ``finite_field.MAX_PRIME``
    = 2^31."""


class DivisibilityError(HeisSplitError):
    """ell does not divide p - 1."""


class ZeroArgumentError(HeisSplitError):
    """Zero passed where a nonzero field element is required."""


class MixedModulusError(HeisSplitError):
    """Operands belong to different groups or fields."""


class DegenerateSpecializationError(HeisSplitError):
    """Specialization point where the unit product degenerates (root^ell = 1)."""


class WrongEllError(HeisSplitError):
    """Operation defined only for a specific ell (2, or >= 3)."""


class DegenerateValueError(HeisSplitError):
    """a lies in the excluded set ({0, 1}, plus 1/2 when ell = 2)."""


class NonPositiveCountError(HeisSplitError):
    """A size or count below its least value: a block size or a number of
    trials below 1, or a recurrence index below 0."""


class NotResidueError(HeisSplitError):
    """a has no ell-th root in F_p where one is required."""


class ExpansionTooLargeError(HeisSplitError):
    """The polynomial expansion of A_ell at this (p, ell) is longer than the
    documented cap (``heis_arith.MAX_EXPANSION_COEFFS``)."""


class NoRootOfUnityError(HeisSplitError):
    """No element of multiplicative order ell where one is required: a
    ``Context`` whose zeta is 1 or has zeta^ell != 1 mod p, or a field
    whose order q has ell not dividing q - 1."""


class UnsupportedEllError(HeisSplitError):
    """ell too large for this check without the explicit opt-in."""


class SymbolNotTrivialError(HeisSplitError):
    """A power residue symbol is nontrivial where triviality is required."""


class MalformedSpecError(HeisSplitError):
    """A command-line argument that cannot be used: a list or range of
    primes that does not parse or leaves no usable (p, ell) pair, or an
    output path that cannot be written."""
