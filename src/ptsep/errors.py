"""Exception types shared across the package."""


class PtsepError(Exception):
    """Base class for package-specific errors."""


class AlphabetMismatch(PtsepError):
    """Binary operation applied to automata with different alphabets."""


class InvalidWord(PtsepError):
    """Word uses a symbol unknown to the relevant alphabet."""


class BudgetExceeded(PtsepError):
    """A state-space or enumeration budget was exhausted."""


class NotDeterministic(PtsepError):
    """Operation requires a deterministic automaton."""


class SchemaError(PtsepError):
    """Malformed JSON input; the message carries the offending location."""
