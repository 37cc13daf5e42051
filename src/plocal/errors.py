"""Exception types shared across the package."""


class PLocalError(Exception):
    """Base class for all errors raised by this package."""


class CapExceeded(PLocalError):
    """A configured enumeration cap (element count, subgroup lattice,
    automorphism base size, morphism closure) was exceeded."""


class DegreeMismatch(PLocalError):
    """Permutations of different degrees were mixed."""


class NotSylow(PLocalError):
    """The given subgroup is not a Sylow p-subgroup of the group."""


class NotSaturated(PLocalError):
    """Operation requires a saturated fusion system."""


class GammaNotClosed(PLocalError):
    """The object set of a restriction is not closed under conjugacy in the
    partial subgroup or under overgroups."""


class Q1Violated(PLocalError):
    """Restriction hypothesis (Q1) fails: some joined subgroup is not an
    object of the ambient locality."""


class Q2Violated(PLocalError):
    """Restriction hypothesis (Q2) fails: some transporter element does not
    move the joined subgroups onto each other."""


class NotFullyKNormalized(PLocalError):
    """The subgroup is not fully K-normalized, so the construction is not
    defined."""


class NotPartialSubgroup(PLocalError):
    """A set expected to be a partial subgroup fails closure."""


class CorpusParseError(PLocalError):
    """Corpus text is malformed. Carries a 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


class KDescriptorNotForX(CorpusParseError):
    """A well-formed ``K=gens:`` descriptor with a generator outside Aut(X)
    for this X, such as one naming a point past |X|."""


class NormalityError(PLocalError):
    """A corpus entry declares a normal subgroup that is not normal."""
