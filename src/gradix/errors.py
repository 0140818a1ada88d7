"""Exception hierarchy shared by the whole engine."""


class GradixError(Exception):
    """Base class for every error raised by gradix."""


class LatticeError(GradixError):
    """Problem constructing or selecting a structure of degrees."""


class LatticeAxiomError(LatticeError):
    """A finite lattice description violates a residuated-lattice axiom.

    Carries the name of the failing axiom and the witnessing elements so a
    rejected table file can be debugged without re-running the validator.
    """

    def __init__(self, axiom, witnesses, detail=""):
        self.axiom = axiom
        self.witnesses = tuple(witnesses)
        msg = f"axiom {axiom!r} fails at {self.witnesses}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class DegreeError(LatticeError):
    """A value is not a member of the lattice carrier it is used with."""


class LatticeMismatchError(LatticeError):
    """Operands built over different lattices were combined."""


class SchemeError(GradixError):
    """Relation-scheme precondition violated (projection target, role
    decomposition, operand scheme equality, ...)."""


class NotJoinableError(GradixError):
    """Tuples disagree on a shared attribute."""


class TypeRegistryError(GradixError):
    """An attribute was redeclared with a different type."""


class UnboundSymbolError(GradixError):
    """A relation symbol is not bound in the database instance."""


class UnsupportedLatticeError(GradixError):
    """A two-valued-only operation was invoked on a graded lattice."""


class PtcError(GradixError):
    """Malformed tuple-calculus expression (variable scheme conflicts,
    quantifier scheme overlap, atom/variable scheme mismatch)."""


class ParseError(GradixError):
    """Syntax error with source position."""

    def __init__(self, message, line, column):
        self.line = line
        self.column = column
        super().__init__(f"{line}:{column}: {message}")
