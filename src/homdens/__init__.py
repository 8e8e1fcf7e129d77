"""Exact algebra of partially labeled graphs and quantum graphs.

Homomorphism and induced densities over the rationals, the gluing
product and its quotient by isolated vertices, polynomial reductions
into the algebra, and machinery for checking positivity evidence.
"""

from .algebra import (
    QuantumGraph,
    as_quantum,
    expand,
    format_qexpr,
    format_quantum,
    ind,
    parse_qexpr,
    parse_quantum,
    product,
    unlabel,
)
from .certificates import (
    check_cs_proof,
    cs_instance,
    integer_witness,
    is_psd,
    moment_matrix,
    parse_cs_proof,
    parse_sos_certificate,
    refute,
    verify_sos,
)
from .density import (
    WeightedGraph,
    density_polynomial,
    t,
    t_ind,
    t_quantum,
)
from .errors import BudgetExceeded, CapExceeded, FormatError
from .graphs import (
    Graph,
    PartiallyLabeledGraph,
    clique_blowup,
    enumerate_graphs,
    format_plg,
    independent_blowup,
    parse_plg,
    stringent_graph,
)
from .polynomials import Polynomial, counterexample_poly, parse_poly
from .reductions import (
    build_counterexample,
    build_instance,
    phi,
    psi_expr,
    witness_graph,
)

__all__ = [
    "BudgetExceeded",
    "CapExceeded",
    "FormatError",
    "Graph",
    "PartiallyLabeledGraph",
    "Polynomial",
    "QuantumGraph",
    "WeightedGraph",
    "as_quantum",
    "build_counterexample",
    "build_instance",
    "check_cs_proof",
    "clique_blowup",
    "counterexample_poly",
    "cs_instance",
    "density_polynomial",
    "enumerate_graphs",
    "expand",
    "format_plg",
    "format_qexpr",
    "format_quantum",
    "ind",
    "independent_blowup",
    "integer_witness",
    "is_psd",
    "moment_matrix",
    "parse_cs_proof",
    "parse_plg",
    "parse_poly",
    "parse_qexpr",
    "parse_quantum",
    "parse_sos_certificate",
    "phi",
    "product",
    "psi_expr",
    "refute",
    "stringent_graph",
    "t",
    "t_ind",
    "t_quantum",
    "unlabel",
    "verify_sos",
    "witness_graph",
]
