"""Expected outputs of every benchmark item, recorded from the commit that
introduced the benchmark.  The checks compare against these values and
against the package's own independent paths (registry tables, Lescot,
Burnside, Feit-Fine); a value here never replaces one of those paths.
"""

from collections import namedtuple

# cold branching of one group: branching = Lescot = registry table, plus
# the exact state counts and the lumped dimension, which must never change
BranchItem = namedtuple(
    "BranchItem", "descriptor family q states abelian_states lumped_dim cp")

# c_G(n) by the oracle: orbits = Burnside = engine c_tuples = classes
TupleItem = namedtuple("TupleItem", "descriptor n tuples classes")

# brute-force commuting pair scan of the d x d matrix algebra over F_q
PairItem = namedtuple("PairItem", "d q pairs")

BRANCH_LARGE = (
    BranchItem("GL(3,3)", "GL3", 3, 53, 48, 8, {
        2: "1/468", 3: "121/31539456", 4: "623/88562792448",
        5: "13591/994737284775936"}),
    BranchItem("U(3,3)", "U3", 3, 102, 93, 8, {
        2: "1/432", 3: "167/36578304", 4: "143/15801827328",
        5: "25091/1337972323516416"}),
)

ORACLE_TUPLES = (
    TupleItem("GL(2,5)", 3, 245760, 10944),
    TupleItem("D(16)", 5, 1056512, 525296),
    TupleItem("GL(2,3)", 5, 135168, 20768),
    TupleItem("SL(2,5)", 4, 76320, 5768),
    TupleItem("PSL(2,7)", 4, 29736, 1046),
    PairItem(3, 2, 7456),
)

# `commprob verify --grid default` report at the recording commit
VERIFY_REPORT = "reference/verify-default.json"
VERIFY_REPORT_SHA256 = (
    "423dc8f3add4653b8dce365cfd410a158fc0d31d1b0768ebbfe9f58cdb3ca75a")
VERIFY_ROWS = 150
VERIFY_ERRATUM_ROWS = 21  # mismatching rows, all documented errata
VERIFY_EXIT_CODE = 1      # the errata keep the grid red

# small variants for the benchmark's self-tests (seconds, not minutes)
BRANCH_SMALL = (
    BranchItem("GL(3,2)", "GL3", 2, 9, 7, 5, {
        2: "1/28", 3: "1/882", 4: "59/1580544", 5: "523/398297088"}),
    BranchItem("U(3,2)", "U3", 2, 39, 33, 7, {
        2: "1/27", 3: "1/864", 4: "361/10077696", 5: "13/11337408"}),
)

ORACLE_SMALL = (
    TupleItem("GL(2,3)", 3, 2688, 392),
    TupleItem("D(4)", 3, 176, 92),
    TupleItem("S(4)", 3, 504, 84),
    PairItem(2, 2, 88),
)
