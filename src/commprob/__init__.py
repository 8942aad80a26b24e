"""Exact-arithmetic commuting probabilities of finite groups.

Builds finite groups (permutation, matrix over GF(p^k), table), computes
their iterated-centralizer branching matrices, and evaluates n-fold
commuting probabilities by three independent methods: branching matrix
powers, Lescot's recurrence, and brute-force tuple enumeration.  A
registry of published closed forms for GL2, U2, Sp2, GL3 and U3 over F_q
is verified against the engine on concrete prime powers.
"""

from .branching import (
    BranchingMatrix,
    TypePartition,
    build_branching,
    c_tuples,
    cp2_classcount,
    cp_via_branching,
    cp_via_lescot,
    lump,
)
from .catalog import GroupDescriptor, build, metadata, order_formula, parse
from .errors import (
    BudgetError,
    CacheError,
    CommProbError,
    InputError,
    InternalError,
    SizeCapError,
)
from .feitfine import PartitionPowerNotation, f, feit_fine_pairs, partitions
from .formulas import (
    REGISTRY,
    RationalFunction,
    evaluate,
    evaluate_matrix,
    matrix_cp,
    verify_suite,
)
from .gf import FieldElement, FieldSpec, field, frobenius
from .groups import (
    ClassData,
    Element,
    Group,
    Subgroup,
    center,
    centralizer,
    closure,
    commutator_subgroup,
    conjugacy_classes,
    derived_length,
    derived_series,
    element_order,
    is_abelian,
    is_solvable,
    z_classes,
)
from .oracle import (
    TupleOrbitReport,
    commuting_pairs_matrix_algebra,
    commuting_tuples_count,
    simultaneous_classes_count,
)

__version__ = "0.1.0"
