"""Exact maximum color count via search over dividing systems.

The maximum number of colors of an admissible coloring equals the maximum
number of regions over all dividing systems.  A system is one parity bit
per face, and it passes from search to certificate as that tuple of bits.
`_sweep` is the one walk over the systems: depth-first over the faces,
bit 0 first, keeping per prefix of faces the cell union-find that joins
each face cell to its uncut side (`dividing.join_face`) and its
component count, so a system pays only for its last face; the last
face's two systems are evaluated in place, right after its steps, and
push no state.  It keeps the lexicographically smallest maximizer as
witness.  Without laws, as `exact_chi_f` runs it, a face never raises
the count, so a prefix no better than the best so far is cut off; every
system is visited or bounded, so systems_explored still reports 2^F.
With laws, the law sweep, it visits all 2^F systems, also keeps the open
curve paths and the edge that closed each curve, its largest, and checks
at each leaf the degree law on the selected edge count and then every other
law in one pass over the cell union-find's roots (`_leaf_laws`),
numbering no region.  Both read each face's two sides, which
`medial.build_medial_graph` builds once per op, and the plane graph's
dart tables in place; the law sweep builds one table more, once per
call: per face and bit the selected edges with both their midpoints.

The law functions evaluate one system from its labelled arrays:
`dividing.label_regions` numbers the regions and reads each curve's two
sides, and `_check_system` builds the division tree's adjacency as
int-keyed region pairs (`dividing.build_division_tree`, which checks the
tree laws), checks region independence and claims 2 and 3 against it in
one pass over the base edges, and the half-monochromatic law
(`_check_region_coloring`): every vertex of each face's uncut side,
`m.sides[f][bit]`, lies in the face cell's region.  That alternation-class
form reads half of each boundary and is stronger than the count form of
`coloring.check_half_monochromatic`, which stays the check for arbitrary
labels.  `_leaf_laws` checks the same laws in the same order on root
ids, the tree's adjacency keyed ra * (n + F) + rb, and only decides
whether they hold.  Each law is checked once: region independence is
exactly properness of the region coloring, and the base vertex law
already gives it one color per region.  A leaf that `_leaf_laws` rejects
goes to the law functions, on its own state (`_reject`), whose error is
the sweep's finding; then the single-system path,
`dividing.decompose_regions`, which also walks the curves, and
`_check_system` evaluate that system again (`_recheck`), so its error
reads as theirs.  The law sweep's witness, counted by `_leaf_laws`' roots,
must equal the pruned walk's, counted by merges, and its count the
witness's.

`_certify` runs the witness through `dividing.decompose_regions` and
`_check_system`, adds claim 1, and certifies 2 * chiF <= 3 * alpha in
exact integer arithmetic; the `RegionDecomposition` those laws were
checked on, its curve walks included, is the result's witness_regions.
Both `exact_chi_f` and the sweep return that `SearchResult`; its witness
coloring is `coloring.coloring_from_regions(witness_regions)`.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple, NoReturn

from .coloring import baseline_coloring
from .dividing import (
    RegionDecomposition,
    build_division_tree,
    decompose_regions,
    join_face,
    label_regions,
)
from .errors import (
    BoundViolated,
    ClaimViolated,
    FaceCapExceeded,
    InternalDegreeViolation,
    InternalInvariantError,
)
from .independence import maximum_matching
from .medial import MedialGraph, build_medial_graph
from .plane_graph import PlaneGraph

DEFAULT_FACE_CAP = 24
DEFAULT_SWEEP_CAP = 16
# systems_explored is 2^F, and CPython refuses to print an int of more than
# 4,300 digits, which 2^F passes at about 14,300 faces.
MAX_FACES = 10_000


class AuditReport(NamedTuple):
    """Outcome of the structural checks run on a computed optimum.

    A report exists only when all three claims hold, since a violation
    raises ClaimViolated: no face boundary carries exactly two colors
    (claim 1), every base edge joins adjacent tree regions (claim 2), and
    tree nodes of degree >= 2 hold >= 2 vertices (claim 3).
    """

    degree_census: tuple[tuple[int, int], ...]  # (tree degree, node count)
    case: str  # "i" when 3*|degree-1 nodes| >= 2*chiF, else "ii"


class SearchResult(NamedTuple):
    chi_f: int
    witness_parities: tuple[int, ...]
    witness_regions: RegionDecomposition
    alpha: int
    audit: AuditReport
    systems_explored: int


def _check_structural_claims(
    g: PlaneGraph, region_of_cell, adjacent, degrees
) -> None:
    """Region independence plus the two tree laws; raises ClaimViolated.

    region_of_cell starts with the base vertices; adjacent and degrees are
    the division tree's, as dividing.build_division_tree returns them: one
    int a * k + b per tree edge and order, where k is the region count, and
    one degree per region.
    """
    k = len(degrees)
    for u, v in g.edges:
        ru = region_of_cell[u]
        rv = region_of_cell[v]
        if ru == rv:
            raise ClaimViolated(
                "independent_regions", f"edge {u}-{v} inside region {ru}"
            )
        if ru * k + rv not in adjacent:
            raise ClaimViolated(
                "claim2", f"edge {u}-{v} spans non-adjacent regions {ru},{rv}"
            )
    sizes = [0] * k  # base vertices per region
    for r in region_of_cell[: g.n]:
        sizes[r] += 1
    for node, deg in enumerate(degrees):
        if deg >= 2 and sizes[node] < 2:
            raise ClaimViolated(
                "claim3", f"region {node} has degree {deg} but one vertex"
            )


def _check_region_coloring(n: int, sides, region_of_cell, bits) -> None:
    """The half-monochromatic law, in its alternation-class form.

    Every vertex of face f's uncut side sides[f][bits[f]] (see
    medial.MedialGraph.sides) must lie in the region of face cell n + f.
    A class of k vertices in one region covers half of a face of degree
    2k, so this is stronger than coloring.check_half_monochromatic's count
    and reads half the labels.  Raises InternalInvariantError otherwise.
    """
    cell = n
    for side, bit in zip(sides, bits):
        r = region_of_cell[cell]
        for v in side[bit]:
            if region_of_cell[v] != r:
                raise InternalInvariantError(
                    f"region coloring failed for parity index {_parity_index(bits)}"
                )
        cell += 1


def _check_system(m: MedialGraph, region_of_cell, k, curve_sides, bits) -> list[int]:
    """The tree, claim and region-coloring laws of the system with these bits.

    region_of_cell, the region count k and curve_sides are the system's
    as dividing.label_regions returns them, which already passed the
    degree, base vertex and region-count laws; the base vertex law gives
    the coloring by region one color per region, and the
    independent_regions claim makes it proper.  It must also be
    half-monochromatic (_check_region_coloring, on the faces' uncut
    sides).  Raises on a violated law; returns the division tree's node
    degrees.
    """
    g, sides = m.graph, m.sides
    adjacent, degrees = build_division_tree(curve_sides, k)
    _check_structural_claims(g, region_of_cell, adjacent, degrees)
    _check_region_coloring(g.n, sides, region_of_cell, bits)
    return degrees


def _leaf_tables(m: MedialGraph) -> tuple:
    """What _leaf_laws reads of the medial graph, gathered once per sweep.

    The base vertex count n; dart_head and dart_face, which give the two
    cells that medial edge d separates, its corner dart_head[d] and its
    face cell n + dart_face[d]; the base edges; and per face f its cell
    and its two sides, (n + f, m.sides[f]), in the order m.sides iterates.
    """
    g = m.graph
    return g.n, g.dart_head, g.dart_face, g.edges, tuple(enumerate(m.sides, g.n))


def _leaf_laws(tables, parent: list[int], closed, bits) -> int:
    """Every law label_regions and _check_system check, on one sweep leaf.

    tables are the medial graph's, as _leaf_tables builds them; parent is
    the leaf's cell union-find and closed the largest edge of each curve,
    as _sweep keeps them.  This resolves parent in place and checks the
    laws in their order on root ids, numbering no region: each region
    holds a base vertex; regions outnumber curves by one; each curve
    borders two regions and the curves form no cycle; region independence
    and claims 2 and 3, against the tree's adjacency, one int
    ra * (n + F) + rb per curve and order; and the half-monochromatic law
    on the faces' uncut sides.  Returns the region count, or 0 if a law
    fails; the law functions then report it (_reject).
    """
    n, head, face, edges, faces = tables
    w = len(parent)
    for c in range(w - 1, -1, -1):  # as label_regions resolves it
        parent[c] = parent[parent[c]]
    vertex_roots = parent[:n]
    roots = set(vertex_roots)
    k = len(roots)
    if not roots.issuperset(parent[n:]) or k != len(closed) + 1:
        return 0
    up = list(range(w))  # the division tree's union-find over root ids
    degree = [0] * w
    adjacent = set()
    for d in closed:
        a, b = parent[head[d]], parent[n + face[d]]
        ra, rb = a, b
        while up[ra] != ra:
            up[ra] = ra = up[up[ra]]
        while up[rb] != rb:
            up[rb] = rb = up[up[rb]]
        if ra == rb:  # a cycle; a curve with one region on both sides is a loop
            return 0
        up[ra] = rb
        adjacent.add(a * w + b)
        adjacent.add(b * w + a)
        degree[a] += 1
        degree[b] += 1
    # a region is never adjacent to itself, so this is independence too
    for u, v in edges:
        if parent[u] * w + parent[v] not in adjacent:
            return 0
    for r in roots:
        if degree[r] >= 2 and vertex_roots.count(r) < 2:
            return 0
    for (cell, side), bit in zip(faces, bits):
        r = parent[cell]
        for v in side[bit]:
            if parent[v] != r:
                return 0
    return k


def _reject(m: MedialGraph, parent: list[int], closed, bits) -> NoReturn:
    """Report a leaf that _leaf_laws rejected as the law functions find it.

    label_regions and _check_system run on the leaf's own state, which
    _leaf_laws has already resolved; their error goes to _recheck as the
    sweep's finding.  If they pass, the disagreement is the finding.
    """
    try:
        region_of_cell, k, curve_sides = label_regions(m, parent, closed)
        _check_system(m, region_of_cell, k, curve_sides, bits)
    except InternalInvariantError as exc:
        _recheck(m, bits, exc)
    _recheck(m, bits, InternalInvariantError(
        f"sweep leaf rejects parity index {_parity_index(bits)}"
        " that the law functions pass"
    ))


def _parity_index(bits) -> int:
    """The system's index in the sweep's order: face 0's bit most significant."""
    return int("".join(map(str, bits)), 2)


def _recheck(m: MedialGraph, bits, found: InternalInvariantError) -> NoReturn:
    """Report a law that the sweep found violated as the single-system path does.

    decompose_regions and _check_system re-evaluate the system with these
    bits, so the error's type and message are theirs; the sweep's finding
    is its cause.  If they pass, the two paths disagree, which is itself a
    bug.
    """
    try:
        r = decompose_regions(m, bits)
        _check_system(m, r.region_of_cell, r.num_regions, r.curve_sides, bits)
    except InternalInvariantError as exc:
        raise exc from found
    raise InternalInvariantError(
        f"law sweep and region kernel disagree on parity index {_parity_index(bits)}"
    ) from found


def _sweep(m: MedialGraph, laws: bool) -> tuple[tuple[int, ...], int]:
    """The lexicographically smallest region-count maximizer and its count.

    The one walk over the dividing systems: depth-first over the faces in
    order, bit 0 first, so the systems come in the lexicographic order of
    itertools.product and the first strict maximizer is kept.  state[f]
    holds what the faces < f build, so each system pays only for its last
    face:
    - the cell union-find of dividing.decompose_regions, face cell n + f
      joined to m.sides[f][bit] by dividing.join_face, and its component
      count: one more cell, less the components join_face merged;
    - with laws, the open curve paths over the midpoints (other[x] is the
      far end of the path that ends at x, or -1 once x has degree two),
      the edge that closed each curve, and the selected edge count;
      without laws, other is None and closed stays empty.  Face f's
      edges come after those of every face < f, in position order, and
      darts run in (face, position) order, so the edge that closes a
      curve is its largest.
    The last face's two systems are evaluated in place, right after that
    face's steps, and push no state.  Without laws, a face never raises
    the count, so a prefix no better than the best so far is cut off.
    With laws, every system checks the degree law on the selected edge
    count, then every other law with _leaf_laws, on the union-find's
    roots and each curve's largest edge; no region is numbered and no
    curve walk is listed.  The one table the laws build, once per call,
    holds per face and bit the selected edges as (e, x, y) with their two
    midpoints, x = dart_edge[e] and y = dart_edge[dart_next[e]]; the leaf
    reads the dart tables in place (_leaf_tables).  Each law is checked
    once.  A violated law is reported by _recheck on the first system, in
    that order, that violates one; a system that _leaf_laws rejects is
    first handed to the law functions (_reject).  The bits are copied out
    only at a new best or a violation.
    """
    g = m.graph
    n, nf, num_midpoints, sides = g.n, len(m.sides), g.num_edges, m.sides
    other = None
    if laws:
        fs, edge, nxt = g.face_start, g.dart_edge, g.dart_next
        selected = [
            [
                tuple((e, edge[e], edge[nxt[e]]) for e in range(s + b, t, 2))
                for b in (0, 1)
            ]
            for s, t in zip(fs, fs[1:])
        ]
        tables = _leaf_tables(m)
        other = list(range(num_midpoints))
    last = nf - 1
    # (parent, components, other, closed, count) of the faces < f
    state: list = [None] * nf
    state[0] = (list(range(n + nf)), n, other, [], 0)
    bit = [-1] * nf  # bit tried last at face f; -1 before the first
    best, best_bits = -1, ()
    f = 0
    while f >= 0:
        b = bit[f] + 1
        if b == 2:
            bit[f] = -1
            f -= 1
            continue
        bit[f] = b
        parent, k, other, closed, count = state[f]
        if b == 0:  # bit 1 is the last use of state[f], so it may take the lists
            parent = parent[:]
            if laws:
                other, closed = other[:], closed[:]
        k += 1 - join_face(parent, n + f, sides[f][b])
        if not laws:
            if k > best:  # no completion has more components than its prefix
                if f < last:
                    state[f + 1] = (parent, k, other, closed, count)
                    f += 1
                else:
                    best, best_bits = k, tuple(bit)
            continue
        edges = selected[f][b]
        for e, x, y in edges:
            ox, oy = other[x], other[y]
            if ox < 0 or oy < 0 or (x == y and ox != x):
                # every system below this prefix breaks the degree law
                bits = (*bit[:f + 1], *[0] * (nf - f - 1))
                bad = x if ox < 0 or x == y else y
                found = InternalDegreeViolation(
                    f"midpoint {bad} meets a third selected edge"
                )
                _recheck(m, bits, found)
            if ox == y:  # e closes the path from x to y, or is a loop at x
                closed.append(e)
                other[x] = other[y] = -1
            else:  # splice the paths ox..x and y..oy into one from ox to oy
                other[ox] = oy
                other[oy] = ox
                if ox != x:
                    other[x] = -1
                if oy != y:
                    other[y] = -1
        count += len(edges)
        if f < last:
            state[f + 1] = (parent, k, other, closed, count)
            f += 1
            continue
        # the last face: this system is complete
        # every degree is at most 2, so all are 2 iff they sum to 2E
        if count != num_midpoints:
            _recheck(m, tuple(bit), InternalDegreeViolation(
                f"{count} medial edges selected, expected {num_midpoints}"
            ))
        k = _leaf_laws(tables, parent, closed, bit)
        if not k:
            _reject(m, parent, closed, tuple(bit))
        if k > best:
            best, best_bits = k, tuple(bit)
    return best_bits, best


def _certify(g: PlaneGraph, m: MedialGraph, parities) -> SearchResult:
    """Check every law on the witness bits, audit them, certify the bound.

    The witness runs through decompose_regions and _check_system, the
    single-system path the sweep is checked against; claim 1, the degree
    census, alpha and the bounds are checked on top, the matching and the
    baseline both reading g.side, the graph's one 2-colouring.  The result
    carries that same RegionDecomposition, so its curves are the ones
    whose laws were checked.
    """
    r = decompose_regions(m, parities)
    colors = r.region_of_cell
    census = Counter(_check_system(m, colors, r.num_regions, r.curve_sides, parities))
    fs = g.face_start
    for f, (s, e) in enumerate(zip(fs, fs[1:])):
        if len({colors[v] for v in g.dart_tail[s:e]}) == 2:
            raise ClaimViolated("claim1", f"face {f} carries exactly two colors")
    chi_f = r.num_regions

    alpha = maximum_matching(g).alpha
    if 2 * chi_f > 3 * alpha:
        raise BoundViolated(f"2*{chi_f} > 3*{alpha}")

    baseline = baseline_coloring(g)
    if chi_f < baseline.num_colors or 2 * chi_f < g.n:
        raise InternalInvariantError(
            f"optimum {chi_f} below the guaranteed lower bound"
        )

    return SearchResult(
        chi_f=chi_f,
        witness_parities=parities,
        witness_regions=r,
        alpha=alpha,
        audit=AuditReport(
            degree_census=tuple(sorted(census.items())),
            case="i" if 3 * census[1] >= 2 * chi_f else "ii",
        ),
        systems_explored=1 << g.num_faces,
    )


def exact_chi_f(g: PlaneGraph, face_cap: int = DEFAULT_FACE_CAP) -> SearchResult:
    """Maximize the region count over all 2^F dividing systems.

    The pruned walk (`_sweep` without laws) finds the lexicographically
    smallest maximizer; only that witness is law-checked and certified.
    systems_explored is 2^F: every system is either visited or bounded.

    Args:
        g: a plane graph, whose faces build_plane_graph has validated.
        face_cap: refuse instances with more faces than this (the search
            is still exponential in the worst case).  A face_cap above
            MAX_FACES counts as MAX_FACES.

    Raises:
        FaceCapExceeded: too many faces for exhaustive enumeration.
        BoundViolated, ClaimViolated: a certified law failed, meaning a bug.
    """
    nf = g.num_faces
    cap = min(face_cap, MAX_FACES)
    if nf > cap:
        raise FaceCapExceeded(f"{nf} faces exceeds cap {cap}")
    m = build_medial_graph(g)
    return _certify(g, m, _sweep(m, laws=False)[0])


def sweep_dividing_systems(
    g: PlaneGraph, face_cap: int = DEFAULT_SWEEP_CAP
) -> SearchResult:
    """Verify the region, tree, claim and coloring laws on every dividing system.

    Exhaustive over all 2^F parity vectors (_sweep with laws): the degree,
    base vertex, region-count, tree, claim 2 and 3 and region-coloring laws
    of each system; every violation raises as decompose_regions and
    _check_system raise it.  The same pass finds the optimum by
    _leaf_laws' root counts, which must be the pruned walk's, found by
    merge counts, and returns it, certified exactly as by exact_chi_f.
    """
    nf = g.num_faces
    if nf > face_cap:
        raise FaceCapExceeded(f"{nf} faces exceeds sweep cap {face_cap}")
    m = build_medial_graph(g)
    bits, most = _sweep(m, laws=True)
    pruned = _sweep(m, laws=False)[0]
    if bits != pruned:
        raise InternalInvariantError(
            f"sweep witness {_parity_index(bits)} differs from the pruned"
            f" search's {_parity_index(pruned)}"
        )
    res = _certify(g, m, bits)
    if res.chi_f != most:
        raise InternalInvariantError(
            f"sweep counted {most} regions but the witness has {res.chi_f}"
        )
    return res
