"""Exception types shared across the package, and how refusals name input."""


class AbelcheckError(Exception):
    """Base class for every error raised by abelcheck."""


class NonTorsionFreeInput(AbelcheckError):
    """A torsion-free-only operation received a group with torsion."""


class NotASubgroup(AbelcheckError):
    """The given subset/subgroup does not live inside the stated parent."""


class BoundExceeded(AbelcheckError):
    """An exhaustive operation was asked to run past its configured bound."""


class IllDefinedHom(AbelcheckError):
    """Generator images violate a relation of the source group."""


class NotCoprime(AbelcheckError):
    """A denominator is not invertible modulo the relevant prime power."""


class InternalConsistencyError(AbelcheckError):
    """Two views of the same fact disagreed; this is a defect, not bad input."""


class ParseError(AbelcheckError):
    """Syntax or semantic error in an input expression.

    Carries the 0-based offset of the offending token in ``position``.
    """

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


def excerpt(text: str, start: int = 0) -> str:
    """How a refusal names ``text``, which starts at ``start`` in the input:
    quoted when it has at most 40 characters, and otherwise by its length
    and position, so that a refusal of a long input stays one short line."""
    if len(text) <= 40:
        return repr(text)
    return f"<{len(text)} characters at position {start}>"
