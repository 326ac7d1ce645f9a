"""Exception types shared across the package."""


class DecseqError(Exception):
    """Base class for everything this package raises on purpose."""


class ProblemSpecError(DecseqError):
    """A problem description failed validation.

    Carries the offending field path so CLI users can find the mistake.
    """

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


class ImpossibleUpdateError(DecseqError):
    """A Bayes update was requested on a zero-probability event."""


class StructureViolation(DecseqError):
    """An action labelling does not have the required threshold shape."""


class CapacityError(DecseqError):
    """A brute-force enumeration or a designer search would exceed its cap.

    ``what`` names the counted quantity in the message.
    """

    def __init__(self, count, cap, what="enumeration size"):
        self.count = count
        self.cap = cap
        super().__init__(f"{what} {count:.6g} exceeds cap {cap:.6g}")


class CertificationError(DecseqError):
    """A requested accuracy could not be certified within configured limits.

    ``best`` holds the best certificate pair that was achieved.
    """

    def __init__(self, message, best=None):
        self.best = best
        super().__init__(message)
