"""Exception types raised across the package.

Everything derives from PcmcError so callers can catch library errors
with a single except clause. Subclasses that correspond to bad inputs
also inherit ValueError.
"""


class PcmcError(Exception):
    """Base class for all errors raised by this package."""


class EmptySubset(PcmcError, ValueError):
    """A choice set or restriction subset was empty."""


class IndexOutOfRange(PcmcError, IndexError):
    """An alternative index fell outside [0, n)."""


class MultipleClosedClasses(PcmcError):
    """The restricted chain has no unique stationary distribution.

    Carries the offending closed communicating classes so callers can
    report which groups of alternatives are absorbing.
    """

    def __init__(self, classes):
        self.classes = [tuple(c) for c in classes]
        super().__init__(
            "restricted chain has %d closed communicating classes: %s"
            % (len(self.classes), self.classes)
        )


class SingularSystem(PcmcError):
    """The stationary masses of a chain are not finite in double precision."""


class EmptyDataset(PcmcError, ValueError):
    """A dataset was built from no observations; only ChoiceDataset's
    validation raises it, so no consumer of a dataset checks again."""


class _Numbered(PcmcError, ValueError):
    """A fault at a numbered file line or observation."""

    def __init__(self, line_number, message):
        self.line_number = int(line_number)
        super().__init__("line %d: %s" % (self.line_number, message))


class ParseError(_Numbered):
    """A dataset file line or its choice set is malformed. line_number is
    the file line (0: the '# n=' header), or for a dataset built in
    memory the observation's 1-based position."""


class InvalidChoice(_Numbered):
    """A recorded choice was not a member of its choice set. line_number
    is as for ParseError."""


class NegativeAlpha(PcmcError, ValueError):
    """Additive smoothing requires a finite, nonnegative pseudocount."""


class DegenerateSplit(PcmcError, ValueError):
    """A train/test split would leave one side empty."""


class UnseenSet(PcmcError, KeyError):
    """The requested choice set does not occur in the dataset."""


class NonpositiveGamma(PcmcError, ValueError):
    """Luce weights must be strictly positive."""


class NotConnected(PcmcError):
    """The comparison graph of the data is not strongly connected,
    so the Luce maximum-likelihood estimate does not exist."""


class NoConvergence(PcmcError):
    """An iterative solver hit its iteration cap before reaching tolerance."""

    def __init__(self, iterations, message=None):
        self.iterations = int(iterations)
        super().__init__(
            message or "no convergence after %d iterations" % self.iterations
        )


class InfeasibleStart(PcmcError, ValueError):
    """A user-supplied starting point violates the feasible region."""


class OptimizerFailure(PcmcError):
    """Numerical optimization reached no point with a finite objective."""


class InvalidPairwise(PcmcError, ValueError):
    """A pairwise win-probability matrix failed validation."""


class NotContractible(PcmcError, ValueError):
    """A rate matrix is not contractible with respect to a partition."""


class LambdaMismatch(PcmcError, ValueError):
    """Two contractible matrices disagree on their block-level rates."""


class BadNesting(PcmcError, ValueError):
    """A regularity check needs A to be a strict subset of B."""


class InvalidK(PcmcError, ValueError):
    """A size (a universe size, player count, mixture size, restart count,
    copy count, block size or embedding dimension) or a seed was not an
    integer in the allowed range. Every size and integer seed is read by
    ctmc._size, which raises this with "<what> must be >= <floor>"."""
