"""Exception types shared across the package, and the panel size bound
that both `simulate` and the CLI's help read."""

#: Largest panel `simulate_panel` draws. Drawing peaks near 2.1 bytes per
#: agent, 4.4 with 256 or more reached cells (see the `simulate` module
#: docstring), so this caps it near 45 MB and about 0.35-1.05 s on two to
#: 32 cells. It lives here so that `beliefcheck simulate --help` can print
#: it without importing `simulate`.
MAX_AGENTS = 10**7


class StructuralError(ValueError):
    """Inputs are malformed: mismatched lengths, unknown labels, bad weights."""


class ZeroProbabilityCell(ValueError):
    """Conditioning was requested on a cell of zero probability, where the
    Bayes update is undefined."""


class AbsoluteContinuityViolation(ValueError):
    """A belief puts positive weight on an outcome the prior rules out."""

    def __init__(self, outcomes, message=None):
        self.outcomes = tuple(outcomes)
        if message is None:
            message = "belief charges prior-null outcomes: %s" % (
                ", ".join(repr(o) for o in self.outcomes)
            )
        super().__init__(message)


class InvalidMixError(ValueError):
    """A mixing distribution does not cover every posterior with positive
    weight."""


class NotRationalizableError(ValueError):
    """No model of the requested kind can reproduce the observation."""


class PreconditionError(ValueError):
    """The observation falls outside the hypotheses of the requested test."""


class ResourceBoundError(ValueError):
    """The requested exhaustive computation exceeds the built-in size guard."""


class UndefinedUpdateError(ValueError):
    """An objectively reachable signal has zero subjective probability, so
    the agent's posterior after it is undefined."""


class FormatError(ValueError):
    """A JSON input file does not conform to the documented schema."""
