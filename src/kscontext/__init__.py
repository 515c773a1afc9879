"""Exact-arithmetic analysis of quantum projector contexts.

Everything is computed exactly over the rationals: subspace lattice
operations, context validity and discovery, exhaustive
noncontextual-assignment search, and state-relative truth valuations
(bivalent with gaps, and the exact weight semantics).  `fractions.Fraction`
entries appear only at the API edge (`Vector`, `Matrix`, `Subspace.basis`
and `rref`); subspaces are primitive integer RREF rows, and the lattice,
orthogonality and valuations run on integers.
"""

from .linalg import (Matrix, Projector, Subspace, Vector, column_space,
                     complement, contains, is_orthogonal, join, meet, member,
                     null_space, orthocomplement, projector_from_span, rref)
from .contexts import (Context, ContextReport, ProjectorSet,
                       UnknownLabelError, find_maximal_contexts, is_maximal,
                       orthogonality_graph, validate_context)
from .search import (Assignment, InconsistentAssignmentError, PinVerdict,
                     SearchResult, Violation, admissible_assignments,
                     check_assignment, localized_indefiniteness_certificate)
from .valuation import (ContextGapNarrative, ContextValuation,
                        IndefinitenessReport, MembershipEvidence, StateVector,
                        TruthValue, ZeroStateError, born_context_sum,
                        born_value, evaluate_bivalent, evaluate_context,
                        localize_indefiniteness)
from .corpus import (BUILTIN_NAMES, CorpusFile, PsetParseError, builtin,
                     builtin_file, emit, parse, to_projector_set)

__version__ = "0.1.0"

__all__ = [
    "Assignment", "BUILTIN_NAMES", "Context", "ContextGapNarrative",
    "ContextReport", "ContextValuation", "CorpusFile",
    "IndefinitenessReport", "InconsistentAssignmentError", "Matrix",
    "MembershipEvidence", "PinVerdict", "Projector", "ProjectorSet",
    "PsetParseError", "SearchResult", "StateVector", "Subspace",
    "TruthValue", "UnknownLabelError", "Vector", "Violation",
    "ZeroStateError", "admissible_assignments", "born_context_sum",
    "born_value", "builtin", "builtin_file", "check_assignment",
    "column_space", "complement", "contains", "emit", "evaluate_bivalent",
    "evaluate_context", "find_maximal_contexts", "is_maximal",
    "is_orthogonal", "join", "localize_indefiniteness",
    "localized_indefiniteness_certificate", "meet", "member", "null_space",
    "orthocomplement", "orthogonality_graph", "parse",
    "projector_from_span", "rref", "to_projector_set", "validate_context",
]
