"""Exception types shared across the package."""


class DegrootNetError(Exception):
    """Base class for all errors raised by this package."""


class NegativeEntry(DegrootNetError):
    def __init__(self, i, j, value):
        self.i, self.j, self.value = i, j, value
        super().__init__(f"entry ({i},{j}) is not >= 0: {value!r}")


class RowSumViolation(DegrootNetError):
    def __init__(self, row, total):
        self.row, self.total = row, total
        super().__init__(f"row {row} sums to {total!r}, not 1 within tolerance")


class InvalidArgument(DegrootNetError, ValueError):
    """A library argument out of its documented range (a caller's fault)."""


class DimensionMismatch(DegrootNetError):
    pass


class NumericalFailure(DegrootNetError):
    pass


class NotStrictlyPositive(DegrootNetError):
    pass


class EigenvectorFailure(DegrootNetError):
    pass


class InvalidProbability(DegrootNetError):
    pass


class Unsupported(DegrootNetError):
    pass


class NoConvergence(DegrootNetError):
    """Fewer than half the replicas reached the consensus-gap tolerance.

    Signals consensus failure of the generating process, not a bug.
    """

    def __init__(self, converged, replicas):
        self.converged, self.replicas = converged, replicas
        super().__init__(f"only {converged}/{replicas} replicas reached the gap tolerance")


class CapHit(DegrootNetError):
    pass


class SingularMass(DegrootNetError):
    pass


class SizeLimit(DegrootNetError):
    pass


class ExplosionGuard(DegrootNetError):
    pass


class NotIid(DegrootNetError):
    pass


class BalanceViolation(DegrootNetError):
    pass


class PreconditionUnmet(DegrootNetError):
    pass


class InsufficientEvents(DegrootNetError):
    pass
