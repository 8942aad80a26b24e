import os
import sys

import pytest

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


def nested_unitary_frames(d, q):
    """Reference U(d,q) matrices: the flattened d x d matrices over
    GF(q^2) with orthonormal columns for <u, v> = sum u_i^q v_i, by
    testing every unit vector against every chosen column (the builder's
    former nested scan), in the order that scan finds them."""
    import itertools

    from commprob.gf import field, prime_power

    p, k = prime_power(q)
    ext = field(p, 2 * k)
    add = ext.add_table()
    mul = ext.mul_table()
    conj = [ext.frobenius_index(i, k) for i in range(ext.q)]
    one = ext.one_index

    def herm(u, v):
        acc = 0
        for a, b in zip(u, v):
            acc = add[acc][mul[conj[a]][b]]
        return acc

    vectors = list(itertools.product(range(ext.q), repeat=d))
    unit = [v for v in vectors if herm(v, v) == one]
    mats = []

    def extend(cols):
        if len(cols) == d:
            mats.append(tuple(cols[j][i] for i in range(d) for j in range(d)))
            return
        for v in unit:
            if all(herm(c, v) == 0 for c in cols):
                extend(cols + [v])

    extend([])
    return mats


def schoolbook_mat_mul(fld, d, A, B):
    """Reference d x d matrix product over the field tables, by the
    triple loop the straight-line kernels replaced."""
    add = fld.add_table()
    mul = fld.mul_table()
    out = []
    for i in range(d):
        for j in range(d):
            acc = 0
            for l in range(d):
                acc = add[acc][mul[A[i * d + l]][B[l * d + j]]]
            out.append(acc)
    return tuple(out)


def cofactor_det(fld, d, A):
    """Reference determinant of a flattened d x d matrix over the field
    tables, by Laplace expansion along the first row."""
    if d == 1:
        return A[0]
    add = fld.add_table()
    mul = fld.mul_table()
    neg = fld.neg_table()
    acc = 0
    for j in range(d):
        minor = tuple(A[r * d + c] for r in range(1, d) for c in range(d)
                      if c != j)
        term = mul[A[j]][cofactor_det(fld, d - 1, minor)]
        acc = add[acc][neg[term] if j % 2 else term]
    return acc


def cofactor_inverse(fld, d, A):
    """Reference inverse of a flattened d x d matrix over the field
    tables: the adjugate, entry (r, c) the signed minor of A without row
    c and column r, over ``cofactor_det``; None when A is singular."""
    det = cofactor_det(fld, d, A)
    if det == 0:
        return None
    mul = fld.mul_table()
    neg = fld.neg_table()
    di = fld.inv_table()[det]
    out = []
    for r in range(d):
        for c in range(d):
            minor = tuple(A[i * d + j] for i in range(d) if i != c
                          for j in range(d) if j != r)
            m = cofactor_det(fld, d - 1, minor) if d > 1 else fld.one_index
            out.append(mul[di][neg[m] if (r + c) % 2 else m])
    return tuple(out)


def bfs_classes(H):
    """Reference conjugacy classes of H: (rep, size, sorted members) per
    class and the id -> class index map, by a breadth-first search over
    element data with 2 products per edge (the kernel's former class
    BFS)."""
    from commprob.groups import generating_ids

    G = H.group
    data = G._data
    ids = G._ids
    mul_data = G._mul_data
    pairs = [(data[g], data[G.inv(g)]) for g in generating_ids(H)]
    assigned = {}
    classes = []
    for seed in H.key:
        if seed in assigned:
            continue
        ci = len(classes)
        assigned[seed] = ci
        orbit = [seed]
        for y in orbit:
            for gd, gdi in pairs:
                z = ids[mul_data(mul_data(gd, data[y]), gdi)]
                if z not in assigned:
                    assigned[z] = ci
                    orbit.append(z)
        classes.append((seed, len(orbit), tuple(sorted(orbit))))
    return classes, assigned


def fraction_lescot(G, n):
    """Reference cp_n(G) (n >= 2) by Lescot's recurrence on fractions,

        cp_m(H) = sum over classes c of H of cp_{m-1}(C_H(c)) / |c|^(m-2) / |H|,

    with cp_1 = 1 and cp_m(H) = 1 for abelian H, memoized by (subgroup,
    m) and valued from m = 2 up (the engine's recurrence before it
    counted tuples in integers)."""
    from fractions import Fraction

    from commprob.groups import centralizer, conjugacy_classes, is_abelian

    def branch(H):
        return () if is_abelian(H) else [
            (centralizer(H, c.rep), c.size)
            for c in conjugacy_classes(H).classes]

    needed = {n: {G.full()}}
    for m in range(n, 2, -1):
        needed[m - 1] = {Z for H in needed[m] for Z, _ in branch(H)}
    memo = {}
    for m in range(2, n + 1):
        for H in needed[m]:
            if not branch(H):
                memo[(H, m)] = Fraction(1)
                continue
            total = Fraction(0)
            for Z, size in branch(H):
                below = memo[(Z, m - 1)] if m > 2 else 1
                total += Fraction(below, size ** (m - 2))
            memo[(H, m)] = total / H.order
    return memo[(G.full(), n)]


def dense_count(counts, root, n):
    """Reference 1^T M^n e_root by dense matrix-vector products that
    multiply every entry (the engine's matrix power before it skipped
    zeros)."""
    size = len(counts)
    vec = [0] * size
    vec[root] = 1
    for _ in range(n):
        vec = [sum(row[i] * vec[i] for i in range(size)) for row in counts]
    return sum(vec)


def mul_z_classes(H):
    """Reference z-classes of H: the orbits of the class representatives'
    centralizers under conjugation, by ``G.mul`` on subgroup keys (the
    kernel's former z-class pass)."""
    from commprob.groups import centralizer, conjugacy_classes, generating_ids

    G = H.group
    mul = G.mul
    gpairs = [(g, G.inv(g)) for g in generating_ids(H)]
    orbit_of = {}
    blocks = []
    for i, c in enumerate(conjugacy_classes(H).classes):
        key = centralizer(H, c.rep).key
        found = orbit_of.get(key)
        if found is not None:
            blocks[found].append(i)
            continue
        oi = len(blocks)
        blocks.append([i])
        orbit_of[key] = oi
        queue = [key]
        while queue:
            k = queue.pop()
            for g, gi in gpairs:
                ck = tuple(sorted(mul(mul(g, z), gi) for z in k))
                if ck not in orbit_of:
                    orbit_of[ck] = oi
                    queue.append(ck)
    return blocks


def bfs_generated(G, gens):
    """Reference closure: the sorted ids of the subgroup of G generated
    by the ids ``gens``, by a breadth-first search with ``G.mul``."""
    seen = {0}
    queue = [0]
    for y in queue:
        for g in gens:
            z = G.mul(g, y)
            if z not in seen:
                seen.add(z)
                queue.append(z)
    return tuple(sorted(seen))


def scan_center(H):
    """Reference center: the sorted ids of H commuting with every member
    of H, by testing every pair with ``G.mul``."""
    G = H.group
    return tuple(
        z for z in H.key
        if all(G.mul(z, h) == G.mul(h, z) for h in H.key)
    )


def greedy_generators(H):
    """Reference generating set of H: the ids of H in ascending order,
    each outside the ``bfs_generated`` closure of those before it."""
    gens = []
    reached = {0}
    for h in H.key:
        if h not in reached:
            gens.append(h)
            reached = set(bfs_generated(H.group, gens))
    return gens


def commutator_closure(H):
    """Reference derived subgroup: the sorted ids of the subgroup N
    generated by the commutators [a, t] = a^-1 t^-1 a t of every member a
    of H with every t in ``greedy_generators(H)``, by ``bfs_generated``.

    N is H': since [xy, t] = y^-1 [x, t] y [y, t], N is normal in H, and
    every t is central modulo N, so H / N is abelian."""
    G = H.group
    mul = G.mul
    gens = greedy_generators(H)
    comms = {mul(mul(G.inv(a), G.inv(t)), mul(a, t))
             for a in H.key for t in gens}
    return bfs_generated(G, sorted(comms))


def pair_commutator_closure(H):
    """Reference derived subgroup by all |H|^2 commutators a^-1 b^-1 a b
    of members a, b of H, closed by ``bfs_generated``."""
    G = H.group
    mul = G.mul
    comms = {mul(mul(G.inv(a), G.inv(b)), mul(a, b))
             for a in H.key for b in H.key}
    return bfs_generated(G, sorted(comms))


def greedy_action_generators(monkeypatch):
    """Make every generating set computed from now on the greedy one of
    ``generating_ids``, as before the two-element search, and so every
    conjugation action built from it: the search finds no pair, neither
    on a subgroup nor on the whole group while it is built."""
    from commprob import groups

    monkeypatch.setattr(groups, "_generating_pair",
                        lambda *_: (None, []))


def fresh_build(desc):
    """A newly built catalog group, bypassing the build cache, so that no
    subgroup of it has generators, an action, classes or centralizers
    computed yet."""
    from commprob import catalog

    return catalog._build_uncached(catalog.parse(desc))


def traced_peak(fn):
    """The ``tracemalloc`` peak, in bytes, of a call ``fn()``: tracing
    starts after a garbage collection, just before the call, and stops
    after it, so the peak counts only what the call allocates."""
    import gc
    import tracemalloc

    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def counted_right(right, count):
    """The multiplier factory ``right`` with each call of a multiplier it
    makes added to ``count[0]``, one product each."""
    def counted(s):
        times = right(s)

        def counted_times(y):
            count[0] += 1
            return times(y)
        return counted_times
    return counted


def count_construction_products(monkeypatch):
    """Count the element products every ``Group`` constructor call makes
    from now on, by ``mul_data`` and by the multipliers of its ``right``
    factory alike: returns a one-item list holding the running count."""
    from commprob.groups import Group

    count = [0]
    init = Group.__init__

    def counted_init(self, kind, mul_data, *args, right=None, **kwargs):
        def counted(a, b):
            count[0] += 1
            return mul_data(a, b)

        if right is not None:
            right = counted_right(right, count)
        init(self, kind, counted, *args, right=right, **kwargs)

    monkeypatch.setattr(Group, "__init__", counted_init)
    return count


def pair_closed(elements, mul, member):
    """Reference closure test: whether ``member`` holds for the product
    of every ordered pair of ``elements``, by testing all n^2 of them
    (the construction check's former exhaustive loop)."""
    return all(member(mul(a, b)) for a in elements for b in elements)


def count_products(monkeypatch, G):
    """Count element products of G from now on, by ``mul_data`` and by
    the multipliers of its ``right`` factory alike: returns a one-item
    list holding the running count."""
    count = [0]
    inner = G._mul_data

    def counted(a, b):
        count[0] += 1
        return inner(a, b)

    monkeypatch.setattr(G, "_mul_data", counted)
    monkeypatch.setattr(G, "_right", counted_right(G._right, count))
    return count


def count_closures(monkeypatch):
    """Count the Dimino closures started from now on: calls of
    ``groups._dimino_add`` on a closure that holds the identity alone, one
    per Schreier closure of a centralizer or normal closure of a derived
    subgroup.  Returns a one-item list holding the running count."""
    from commprob import groups

    count = [0]
    inner = groups._dimino_add

    def counted(G, closure, gens, g, target=None):
        if len(closure) == 1:
            count[0] += 1
        return inner(G, closure, gens, g, target)

    monkeypatch.setattr(groups, "_dimino_add", counted)
    return count


def count_transports(monkeypatch):
    """Count the centralizers carried from a conjugate from now on: calls
    of ``groups._transport``, one per centralizer that takes no closure
    because another member of its class has one kept.  Returns a
    one-item list holding the running count."""
    from commprob import groups

    count = [0]
    inner = groups._transport

    def counted(*args):
        count[0] += 1
        return inner(*args)

    monkeypatch.setattr(groups, "_transport", counted)
    return count


def count_carried_states(monkeypatch):
    """Count the centralizers carried from a conjugate state from now on:
    calls of ``groups._carry_centralizer``, one per distinct centralizer
    of a state carried from its conjugate's, which takes neither a
    closure nor a path in that state's classes.  Returns a one-item list
    holding the running count."""
    from commprob import groups

    count = [0]
    inner = groups._carry_centralizer

    def counted(*args):
        count[0] += 1
        return inner(*args)

    monkeypatch.setattr(groups, "_carry_centralizer", counted)
    return count


def expansion_record(G, lescot_ns=range(2, 6)):
    """What a branching expansion of G gives, for comparing two of them:
    the matrix, its state keys, and on every state its classes (reps,
    sizes, members, the flat table) and the centralizer key of each class
    representative; then Lescot's cp_n for ``lescot_ns``."""
    from commprob.branching import build_branching, cp_via_lescot
    from commprob.groups import centralizer, conjugacy_classes

    bm = build_branching(G)
    states = []
    for st in bm.states:
        H = G.subgroup(st.key, validate=False)
        cd = conjugacy_classes(H)
        states.append((
            st.key,
            [(c.rep, c.size, c.members) for c in cd.classes],
            list(cd.table),
            [centralizer(H, c.rep).key for c in cd.classes],
        ))
    return bm, [st.key for st in bm.states], states, [
        cp_via_lescot(G, n) for n in lescot_ns]


def slow_expansion_record(build_group, lescot_ns=range(2, 6)):
    """``expansion_record`` of a group from ``build_group()`` with no
    state carried from a conjugate: the seam ``groups._carried_from``
    answers None, so every state grows its own classes and finds its
    own centralizers."""
    from unittest import mock

    from commprob import groups

    with mock.patch.object(groups, "_carried_from", lambda H: None):
        return expansion_record(build_group(), lescot_ns)


def sorted_signature_lump(B):
    """Reference lumping: the coarsest lumpable partition refining the
    (order, class count) fingerprint, with the blocks numbered by sorted
    signature each pass, so that the root block comes last, and the
    quotient summed again from the blocks.  Returns
    (blocks, quotient, block_of, root_block)."""
    size = len(B.states)
    counts = B.counts
    fingerprints = [(st.order, st.class_count) for st in B.states]
    ordered = sorted(set(fingerprints))
    block_of = [ordered.index(fp) for fp in fingerprints]
    nblocks = len(ordered)
    while True:
        signatures = []
        for s in range(size):
            agg = [0] * nblocks
            for u in range(size):
                if counts[u][s]:
                    agg[block_of[u]] += counts[u][s]
            signatures.append((block_of[s], tuple(agg)))
        distinct = sorted(set(signatures))
        block_of = [distinct.index(sig) for sig in signatures]
        if len(distinct) == nblocks:
            break
        nblocks = len(distinct)
    blocks = [[] for _ in range(nblocks)]
    for s in range(size):
        blocks[block_of[s]].append(s)
    quotient = [[sum(counts[u][blocks[bi][0]] for u in blocks[bj])
                 for bi in range(nblocks)] for bj in range(nblocks)]
    return blocks, quotient, block_of, block_of[B.root]


@pytest.fixture
def no_child_left():
    """After the test, no child process of this one is left, running or
    unreaped: ``verify --threads k`` reaps every worker it forks, on
    success and on error alike."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fail_in_a_verify_child(monkeypatch, fail):
    """Make the jobs of the default grid's second unit, the one forked
    child 1 starts with at two or more workers, call ``fail`` there; in
    this process they raise AssertionError."""
    from commprob import formulas

    parent = os.getpid()
    jobs = formulas._jobs("default")
    seed = {d for i in formulas._units(jobs)[1] for d in jobs[i][0]}
    assert seed
    run_job = formulas._run_job

    def run(job):
        if seed & set(job[0]):
            if os.getpid() == parent:
                raise AssertionError("child 1's first unit ran in the parent")
            fail()
        return run_job(job)

    monkeypatch.setattr(formulas, "_run_job", run)
