"""Exception types raised across the package."""


class FlatGpError(Exception):
    """Base class for all flatgp errors."""


class UnknownRegularity(FlatGpError):
    """A custom kernel was used without a declared regularity parameter."""


class SeriesTruncation(FlatGpError):
    """A radial expansion was requested beyond the kernel's smoothness."""


class SingularWronskianBlock(FlatGpError):
    """The leading block of a Wronskian matrix is numerically singular."""


class NotUnisolvent(FlatGpError):
    """The design does not determine the parametric basis (rank-deficient V)."""


class NegativeVariance(FlatGpError):
    """A predictive variance fell below round-off level; likely a CPD violation."""


class IllConditioned(FlatGpError):
    """A kernel-matrix factorization is numerically meaningless.

    Carries an estimate of the smallest eigenvalue of the regularized matrix.
    """

    def __init__(self, message, smallest_eigenvalue=None):
        super().__init__(message)
        self.smallest_eigenvalue = smallest_eigenvalue


class InterpolatingSmoother(FlatGpError):
    """Leave-one-out is undefined: a diagonal entry of the smoother is 1."""


class DegenerateVariance(FlatGpError):
    """A leave-one-out predictive variance is not positive."""


class UnreachableDof(FlatGpError):
    """No gain value attains the requested degrees of freedom."""


class NotProportional(FlatGpError):
    """No global kernel rescaling makes the two models prediction-equivalent."""


class InsufficientGrid(FlatGpError):
    """Fewer than three usable grid points survived for a convergence fit."""


class IncomparableModels(FlatGpError):
    """Two factorizations cannot be compared: their bases differ in size or
    they are of different designs."""


class DatasetError(FlatGpError):
    """A dataset file could not be parsed; carries row/column location."""

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class EmptyDataset(DatasetError):
    """The dataset file contains no data rows."""
