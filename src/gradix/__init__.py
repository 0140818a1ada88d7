"""gradix: rank-aware relational algebra over complete residuated lattices.

Tables map tuples to degrees from a pluggable residuated lattice; the
algebra includes the ranged division and friends, a pseudo tuple calculus
compiles constructively into it, and a harness of theorem suites checks the
algebraic identities against independent oracles.
"""

from .algebra import (
    DeeConst,
    Delta,
    DivRanged,
    EadomExpr,
    GCodd,
    GDDO,
    GGDO,
    GradedDifference,
    GSD,
    GSDO,
    GTodd,
    Intersection,
    Nabla,
    NaturalJoin,
    Projection,
    RelSym,
    ResiduumRange,
    Semidifference,
    Semijoin,
    Singleton,
    Union,
    adom,
    eadom,
    eadom_ra_expr,
    eval_ra,
    ra_to_text,
    resolve_schemes,
    scheme_of,
)
from .division import (
    div_gcodd,
    div_gddo,
    div_ggdo,
    div_gsd,
    div_gsdo,
    div_gtodd,
    div_ranged,
    semidifference,
)
from .errors import (
    DegreeError,
    GradixError,
    LatticeAxiomError,
    LatticeError,
    LatticeMismatchError,
    NotJoinableError,
    ParseError,
    PtcError,
    SchemeError,
    TypeRegistryError,
    UnboundSymbolError,
    UnsupportedLatticeError,
)
from .lattice import (
    DEGREE_TOL,
    BooleanLattice,
    FiniteChain,
    FiniteTableLattice,
    GoedelLattice,
    GoguenLattice,
    LukasiewiczLattice,
    ResiduatedLattice,
    lattice_from_spec,
    load_lattice_file,
    make_lattice,
)
from .parsing import parse_ptc, parse_ra, parse_script
from .ptc import (
    Atom,
    PtcBinary,
    PtcDelta,
    PtcInf,
    PtcNabla,
    PtcSup,
    TupleVar,
    compile_ptc_to_ra,
    embed_ra,
    eval_ptc,
    ptc_to_text,
    split_variable,
    valuation,
)
from .table import (
    DatabaseInstance,
    EMPTY_TUPLE,
    AttributeRegistry,
    RankedDataTable,
    Tuple,
    dee,
    delta,
    difference_graded,
    empty,
    intersection,
    nabla,
    natural_join,
    projection,
    read_csv,
    residuum_with_range,
    semijoin,
    table_to_csv,
    tuple_join,
    tuple_joinable,
    tuple_project,
    union,
    write_csv,
)

__version__ = "0.1.0"
