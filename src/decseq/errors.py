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

    def __init__(self, count, cap, what):
        self.count = count
        self.cap = cap
        super().__init__(f"{what} {printable(count)} exceeds cap {printable(cap)}")


def printable(n):
    """``n`` itself while ``str()``, and so ``json``, can write it, else the
    text "2**k or more".  An oracle's count or work bound can pass the 4300
    digits ``str()`` converts, and float range, where a float format
    overflows."""
    return n if n < 2 ** 14000 else f"2**{n.bit_length() - 1} or more"


class CertificationError(DecseqError):
    """A requested accuracy could not be certified within configured limits.

    ``best`` holds the best certificate pair that was achieved.
    """

    def __init__(self, message, best=None):
        self.best = best
        super().__init__(message)
