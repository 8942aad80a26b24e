import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

# catalog groups small enough for the element-level oracle identities
ORACLE_GRID = (
    "C(1)", "C(6)", "C(12)", "CxC(2,2)", "CxC(2,4)", "CxC(3,3)",
    "S(3)", "S(4)", "A(4)", "A(5)",
    "D(3)", "D(4)", "D(5)", "D(8)",
    "Q8", "UT(3,2)", "UT(3,3)",
    "GL(2,2)", "GL(2,3)", "SL(2,3)", "U(2,2)", "PSL(2,3)", "PSL(2,5)",
)


def scan_centralizer(H, x):
    """Reference centralizer: the sorted ids of H commuting with x, by
    testing every member (the kernel's former full scan)."""
    G = H.group
    data = G._data
    mul_data = G._mul_data
    xd = data[x]
    return tuple(
        h for h in H.key if mul_data(data[h], xd) == mul_data(xd, data[h])
    )
