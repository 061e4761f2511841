"""Shared exception types."""


class InputError(ValueError):
    """Malformed caller input: unknown ids, mismatched contexts, bad files."""


class ConsistencyError(RuntimeError):
    """Two independent routes to the same value disagreed beyond tolerance."""


class NotCartanError(InputError):
    """A semigroup spec failed a Cartan axiom where one was required."""

    def __init__(self, failures):
        self.failures = tuple(failures)
        super().__init__("semigroup is not Cartan: " + "; ".join(self.failures))

    def __reduce__(self):  # args hold the message, so pickle rebuilds from the failures
        return type(self), (self.failures,)
