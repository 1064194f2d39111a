"""Exception hierarchy for phylocircuit."""


class PhyloCircuitError(Exception):
    """Base class for all library errors."""


# ---------------------------------------------------------------------------
# network validation

class ValidationError(PhyloCircuitError):
    """A raw network description violates a structural invariant."""


class DisconnectedError(ValidationError):
    pass


class MultiEdgeError(ValidationError):
    """Duplicate edge or self-loop."""


class BadLeafDegreeError(ValidationError):
    """Degree-1 node without a label, or labeled node with degree != 1."""


class InternalDegreeTooLowError(ValidationError):
    """Unlabeled node of degree 2 or less."""


class NegativeWeightError(ValidationError):
    pass


class BadLeafLabelError(ValidationError):
    """Leaf labels are not exactly 1..n with n >= 2."""


class BadOrderError(ValidationError, ValueError):
    """A circular order repeats a label or lacks label 1.  Also a
    ValueError, so a parser reports it as a malformed field of its line."""


#: what parsing a malformed field raises
MALFORMED = (ValueError, ZeroDivisionError)


def cannot_parse(lineno: int, raw: str) -> ValidationError:
    """The error for a malformed field of one input line."""
    return ValidationError(f"line {lineno}: cannot parse {raw!r}")


# ---------------------------------------------------------------------------
# structural preconditions

class NotOneNestedError(PhyloCircuitError):
    """Operation requires every edge to lie in at most one cycle."""


class NotATriangleError(PhyloCircuitError):
    pass


class NotADegreeThreeNodeError(PhyloCircuitError):
    pass


class DegenerateWeightsError(PhyloCircuitError):
    """Wye-delta exchange undefined (zero total or zero arm)."""


class NoCycleError(PhyloCircuitError):
    """Requested cycle block does not exist."""


class BadChordError(PhyloCircuitError):
    """Chord endpoints adjacent (would create a multi-edge) or weight too small."""


# ---------------------------------------------------------------------------
# metric computations

class ZeroWeightEdgeError(PhyloCircuitError):
    """Conductance undefined for a zero-weight edge."""


class ReductionStuckError(PhyloCircuitError):
    """No series, parallel, prune, or wye-delta rule applies."""


class SizeMismatchError(PhyloCircuitError):
    pass


class TooLargeForExactError(PhyloCircuitError):
    """Exhaustive order search is capped at n <= 9."""


class NotKalmansonError(PhyloCircuitError):
    """Carries the first violating quadruple and its amount."""

    def __init__(self, quadruple, amount):
        self.quadruple = quadruple
        self.amount = amount
        super().__init__(
            f"quadruple {quadruple} violates the circular inequality by {amount}"
        )


class NegativeSplitWeightError(PhyloCircuitError):
    """A Kalmanson vector gives a trivial split a negative weight, so no
    nonnegative circular split system reproduces it."""

    def __init__(self, split, weight):
        self.split = split
        self.weight = weight
        super().__init__(f"trivial split {split} has negative weight {weight}")


# ---------------------------------------------------------------------------
# split systems

class NotCircularError(PhyloCircuitError):
    """A split has a side that is not contiguous in the given order."""


class MissingTrivialSplitsError(PhyloCircuitError):
    pass


class NotInvertibleError(PhyloCircuitError):
    """No positive edge weighting reproduces the weighted split system."""


# ---------------------------------------------------------------------------
# enumeration and genetics

class OutOfRangeError(PhyloCircuitError):
    pass


class DomainError(PhyloCircuitError):
    """Argument outside the domain of a distance formula."""
