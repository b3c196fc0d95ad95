"""Exception types shared across the package."""


class PartialWordError(Exception):
    """Base class for every library-specific error."""


class InvalidCharacterError(PartialWordError, ValueError):
    """A character in the input text is neither a lowercase letter nor a hole."""

    def __init__(self, position: int, char: str):
        self.position = position
        self.char = char
        super().__init__(f"invalid character {char!r} at position {position}")


class LetterOutsideAlphabetError(PartialWordError, ValueError):
    """A letter in the input text lies beyond the declared alphabet."""

    def __init__(self, position: int, char: str, alphabet_size: int):
        self.position = position
        self.char = char
        self.alphabet_size = alphabet_size
        super().__init__(
            f"letter {char!r} at position {position} is outside the "
            f"{alphabet_size}-letter alphabet"
        )


class OutOfRangeError(PartialWordError, ValueError):
    """A position or position range falls outside the word."""


class IncompatibleError(PartialWordError, ValueError):
    """Join was requested for two words that disagree at a defined position."""


class NotAPowerError(PartialWordError, ValueError):
    """Root enumeration was requested for a word that is not an r-th power."""


class AlphabetTooSmallError(PartialWordError, ValueError):
    """A construction needs more distinct letters than the alphabet provides."""


class BadExponentError(PartialWordError, ValueError):
    """A construction was asked for an exponent outside its valid range."""


class ResourceLimitError(PartialWordError, RuntimeError):
    """An enumeration ran out of its check budget or lost a worker process."""
