"""Instance files, corpus generators, Tutte layout and SVG rendering.

Instance format (line oriented, ``#`` starts a comment)::

    name grid2x3
    vertices 6
    rotation 0 1 3          # vertex id, then neighbours counterclockwise
    ...
    coord 0 0.0 0.0         # optional; all vertices or none

Rotations are the authoritative embedding; coordinates only drive drawing.
"""

from __future__ import annotations

import colorsys
import math
import re
from collections.abc import Collection, Sequence
from typing import NamedTuple

from .coloring import Coloring
from .dividing import Cycle
from .errors import BadParameter, DegenerateLayout, ParseError, SizeCapExceeded
from .plane_graph import PlaneGraph, build_plane_graph


class InstanceFile(NamedTuple):
    name: str
    n: int
    rotations: tuple[tuple[int, ...], ...]
    coords: tuple[tuple[float, float], ...] | None = None


def build(inst: InstanceFile) -> PlaneGraph:
    """Build the plane graph an instance describes."""
    return build_plane_graph(inst.n, inst.rotations, inst.coords)


# ASCII decimal integers only: str.isdigit also admits digits that int()
# rejects, and 18 digits is far past any size cap and well under int()'s
# 4300-digit limit.  A rotation line is matched whole, after its directive.
_ID = r"-?[0-9]{1,18}"
_INTEGER = re.compile(_ID)
_INTEGER_LIST = re.compile(rf"(?:\s+{_ID})+")


def _missing_ids(present: Collection[int], n: int) -> str:
    """Describe the ids in range(n) absent from present; '' if none is.

    Gives the count and the first five gaps as ranges, walking the present
    ids rather than range(n), so a huge declared n costs nothing.
    """
    if len(present) == n and min(present) >= 0 and max(present) < n:
        return ""  # n distinct ids, all in range
    ids = sorted(v for v in present if 0 <= v < n)
    if len(ids) == n:
        return ""  # every id in range is there, beside some out of range
    gaps: list[str] = []
    expected = 0
    for v in (*ids, n):
        if v > expected:
            if len(gaps) == 5:
                gaps.append("...")
                break
            last = v - 1
            gaps.append(str(last) if last == expected else f"{expected}-{last}")
        expected = v + 1
    return f"{n - len(ids)} of {n} vertices: {', '.join(gaps)}"


def parse_instance_text(text: str) -> InstanceFile:
    """Parse instance text, collecting every defect before failing."""
    defects: list[tuple[int, str]] = []
    name: str | None = None
    n: int | None = None
    rotations: dict[int, tuple[int, ...]] = {}
    coords: dict[int, tuple[float, float]] = {}
    rejected_xy: set[int] = set()  # ids of coord lines with bad values
    # Ids are checked against n as they are stored.  Until the vertices
    # line is read, limit is 0, so every id fails the check; a failing id
    # keeps its line in unchecked, to be checked once n is known.
    limit = 0
    unchecked: list[tuple[int, str, int]] = []  # (line, kind, id)

    # Only \n, \r\n and \r end a line: str.splitlines also cuts at \f, U+0085 ...
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_no, line in enumerate(lines, start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0]
        # rotation and coord lines outnumber the rest, so they go first
        if key == "rotation":
            if not _INTEGER_LIST.fullmatch(line, len(key)):
                defects.append((line_no, "rotation requires integer ids"))
                continue
            v = int(parts[1])
            if v in rotations:
                defects.append((line_no, f"duplicate rotation for vertex {v}"))
            else:
                rotations[v] = tuple(map(int, parts[2:]))
                if not 0 <= v < limit:
                    unchecked.append((line_no, "rotation", v))
        elif key == "coord":
            if len(parts) != 4 or not _INTEGER.fullmatch(parts[1]):
                defects.append((line_no, "coord requires: vertex id, x, y"))
                continue
            v = int(parts[1])
            try:
                x, y = float(parts[2]), float(parts[3])
            except ValueError:
                defects.append((line_no, "coord values must be numbers"))
                rejected_xy.add(v)
                continue
            if not (math.isfinite(x) and math.isfinite(y)):
                defects.append((line_no, "coord values must be finite"))
                rejected_xy.add(v)
                continue
            if v in coords:
                defects.append((line_no, f"duplicate coord for vertex {v}"))
            else:
                coords[v] = (x, y)
                if not 0 <= v < limit:
                    unchecked.append((line_no, "coord", v))
        elif key == "name":
            if len(parts) < 2:
                defects.append((line_no, "name requires a value"))
            elif name is not None:
                defects.append((line_no, "duplicate name"))
            else:
                name = " ".join(parts[1:])
        elif key == "vertices":
            if len(parts) != 2 or not _INTEGER.fullmatch(parts[1]):
                defects.append((line_no, "vertices requires one integer"))
            elif n is not None:
                defects.append((line_no, "duplicate vertices"))
            elif int(parts[1]) <= 0:
                defects.append((line_no, "vertex count must be positive"))
            else:
                n = limit = int(parts[1])
        else:
            defects.append((line_no, f"unknown directive {key!r}"))

    if n is None:
        defects.append((0, "missing 'vertices' line"))
    else:
        for line_no, kind, v in unchecked:
            if not 0 <= v < n:
                defects.append((line_no, f"{kind} for out-of-range vertex {v}"))
        missing = _missing_ids(rotations, n)
        if missing:
            defects.append((0, f"missing rotation for {missing}"))
        if coords:
            # a vertex whose coord line was rejected has its defect already
            present = coords.keys() | rejected_xy if rejected_xy else coords
            missing_xy = _missing_ids(present, n)
            if missing_xy:
                defects.append((0, f"missing coord for {missing_xy}"))

    if defects:
        raise ParseError(sorted(defects))
    assert n is not None
    return InstanceFile(
        name=name if name is not None else "unnamed",
        n=n,
        rotations=tuple(map(rotations.__getitem__, range(n))),
        coords=tuple(map(coords.__getitem__, range(n))) if coords else None,
    )


def serialize_instance(inst: InstanceFile) -> str:
    lines = [f"name {inst.name}", f"vertices {inst.n}"]
    for v, neigh in enumerate(inst.rotations):
        lines.append("rotation " + " ".join(str(x) for x in (v, *neigh)))
    if inst.coords is not None:
        for v, (x, y) in enumerate(inst.coords):
            lines.append(f"coord {v} {x!r} {y!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Corpus generators
# ---------------------------------------------------------------------------

# Each generator works out its vertex count from its parameters and checks
# it against this cap before building anything, so an absurd size fails
# fast instead of exhausting memory.
GEN_VERTEX_CAP = 10**6


def _require_gen_size(n: int) -> None:
    if n > GEN_VERTEX_CAP:
        raise SizeCapExceeded(f"{n} vertices exceeds generator cap {GEN_VERTEX_CAP}")


def cycle_instance(length: int) -> InstanceFile:
    """A cycle drawn on a circle; its two faces are the inside and outside."""
    if length < 4 or length % 2 != 0:
        raise BadParameter("cycle length must be an even number >= 4")
    _require_gen_size(length)
    rotations = tuple(
        ((v + 1) % length, (v - 1) % length) for v in range(length)
    )
    coords = tuple(
        (math.cos(2 * math.pi * v / length), math.sin(2 * math.pi * v / length))
        for v in range(length)
    )
    return InstanceFile(f"cycle{length}", length, rotations, coords)


def grid_instance(rows: int, cols: int) -> InstanceFile:
    """A rows x cols lattice; neighbours listed counterclockwise (E, N, W, S)."""
    if rows < 2 or cols < 2:
        raise BadParameter("grid requires rows >= 2 and cols >= 2")
    n = rows * cols
    _require_gen_size(n)
    rotations = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            neigh = []
            if j + 1 < cols:
                neigh.append(v + 1)
            if i + 1 < rows:
                neigh.append(v + cols)
            if j - 1 >= 0:
                neigh.append(v - 1)
            if i - 1 >= 0:
                neigh.append(v - cols)
            rotations.append(tuple(neigh))
    coords = tuple(
        (float(v % cols), float(v // cols)) for v in range(n)
    )
    return InstanceFile(f"grid{rows}x{cols}", n, tuple(rotations), coords)


def prism_instance(cycle_len: int) -> InstanceFile:
    """Two concentric even cycles joined by spokes (cycle_len 4 is the cube)."""
    if cycle_len < 4 or cycle_len % 2 != 0:
        raise BadParameter("prism cycle length must be an even number >= 4")
    _require_gen_size(2 * cycle_len)
    m = cycle_len
    rotations = []
    for i in range(m):  # outer ring
        rotations.append(((i + 1) % m, m + i, (i - 1) % m))
    for i in range(m):  # inner ring
        rotations.append((i, m + (i + 1) % m, m + (i - 1) % m))
    coords = []
    for radius in (2.0, 1.0):
        for i in range(m):
            ang = 2 * math.pi * i / m
            coords.append((radius * math.cos(ang), radius * math.sin(ang)))
    return InstanceFile(f"prism{m}", 2 * m, tuple(rotations), tuple(coords))


_FAMILIES = {  # family -> (parameter count, generator)
    "cycle": (1, cycle_instance),
    "grid": (2, grid_instance),
    "prism": (1, prism_instance),
}


def generate_instance(family: str, params) -> InstanceFile:
    """Dispatch to a corpus family: cycle LEN, grid ROWS COLS, prism LEN."""
    params = tuple(params)
    if family not in _FAMILIES:
        raise BadParameter(f"unknown family {family!r}; know {sorted(_FAMILIES)}")
    arity, generator = _FAMILIES[family]
    if len(params) != arity:
        raise BadParameter(f"family {family!r} takes {arity} parameter(s)")
    return generator(*params)


def subdivide_edge(inst: InstanceFile, u: int, v: int, times: int = 2) -> InstanceFile:
    """Replace edge {u, v} by a path through `times` fresh vertices.

    Subdividing an even number of times keeps every face degree even.  The
    fresh vertices take ids n, n+1, ... and are spaced along the segment
    when the instance carries coordinates.
    """
    if times < 1:
        raise BadParameter("times must be >= 1")
    rotations = [list(r) for r in inst.rotations]
    if not (0 <= u < inst.n and 0 <= v < inst.n) or v not in rotations[u]:
        raise BadParameter(f"no edge {u}-{v} to subdivide")
    chain = list(range(inst.n, inst.n + times))
    rotations[u][rotations[u].index(v)] = chain[0]
    rotations[v][rotations[v].index(u)] = chain[-1]
    path = [u, *chain, v]
    for k, w in enumerate(chain, start=1):
        rotations.append([path[k - 1], path[k + 1]])

    coords = None
    if inst.coords is not None:
        coords = list(inst.coords)
        (x0, y0), (x1, y1) = inst.coords[u], inst.coords[v]
        for k in range(1, times + 1):
            t = k / (times + 1)
            coords.append((x0 + t * (x1 - x0), y0 + t * (y1 - y0)))
        coords = tuple(coords)
    return InstanceFile(
        name=f"{inst.name}-sub{u}-{v}",
        n=inst.n + times,
        rotations=tuple(tuple(r) for r in rotations),
        coords=coords,
    )


# ---------------------------------------------------------------------------
# Layout and rendering
# ---------------------------------------------------------------------------

# The layout runs conjugate gradients on a sparse system in O(n) memory,
# with O(n) work per sweep; a bare k x k grid takes about 3k sweeps.  On a
# 2-core machine a bare 50x50 grid renders in about 0.9 s and 23 MB peak,
# a bare 100x100 grid in about 6 s.
LAYOUT_VERTEX_CAP = 2500
COINCIDE = 1e-6  # layout vertices closer than this count as one point


def _conjugate_gradient(
    diag: list[int], rows: list[list[int]], b: list[float]
) -> list[float]:
    """Solve A x = b for A with diagonal diag and -1 at (i, j) per j in
    rows[i], symmetric positive definite, starting from x = 0.

    Stops once the squared residual is 1e-30 of its start: looser stops
    move the layout's printed digits or fail its 1e-9 residual check.
    """
    x = [0.0] * len(b)
    r = list(b)
    p = list(b)
    rr = sum(ri * ri for ri in r)
    stop = 1e-30 * rr
    for _ in range(len(b) + 1000):
        if rr <= stop:
            break
        q = [d * pi - sum(map(p.__getitem__, row)) for d, row, pi in zip(diag, rows, p)]
        step = rr / sum(pi * qi for pi, qi in zip(p, q))
        x = [xi + step * pi for xi, pi in zip(x, p)]
        r = [ri - step * qi for ri, qi in zip(r, q)]
        rr, rr_old = sum(ri * ri for ri in r), rr
        p = [ri + rr / rr_old * pi for ri, pi in zip(r, p)]
    return x


def tutte_embedding(g: PlaneGraph) -> tuple[tuple[float, float], ...]:
    """Barycentric layout: pin one face to a regular polygon, average the rest.

    Pins a face of maximum degree, the lowest-numbered on ties.  Interior
    positions solve the linear system "every vertex sits at the mean of its
    neighbours" by conjugate gradients, one solve per coordinate (the
    system is positive definite, as the graph is connected); a residual
    above 1e-9 or two vertices closer than 1e-6 raise DegenerateLayout
    (expected when the graph is not 3-connected), in which case callers
    should supply explicit coords.
    More than LAYOUT_VERTEX_CAP vertices raise SizeCapExceeded.
    """
    if g.n > LAYOUT_VERTEX_CAP:
        raise SizeCapExceeded(
            f"{g.n} vertices exceeds layout cap {LAYOUT_VERTEX_CAP}; "
            "give the instance coord lines to draw it"
        )
    fs = g.face_start
    s, e = max(zip(fs, fs[1:]), key=lambda w: w[1] - w[0])  # first on ties
    boundary = g.dart_tail[s:e]
    ring = len(boundary)
    pos: dict[int, tuple[float, float]] = {}
    for k, v in enumerate(boundary):
        ang = math.pi / 2 - 2 * math.pi * k / ring
        pos[v] = (math.cos(ang), math.sin(ang))

    interior = [v for v in range(g.n) if v not in pos]
    if interior:
        # rows of the graph Laplacian at interior vertices; the pinned
        # neighbours move to the right-hand side
        idx = {v: i for i, v in enumerate(interior)}
        diag = [g.degree(v) for v in interior]
        rows = [[idx[u] for u in g.rotations[v] if u in idx] for v in interior]
        pinned = [[pos[u] for u in g.rotations[v] if u in pos] for v in interior]
        xs, ys = (
            _conjugate_gradient(diag, rows, [sum(q[k] for q in qs) for qs in pinned])
            for k in (0, 1)
        )
        for v, x, y in zip(interior, xs, ys):
            pos[v] = (x, y)

    coords = tuple(pos[v] for v in range(g.n))
    for v in interior:
        mx = sum(coords[u][0] for u in g.rotations[v]) / g.degree(v)
        my = sum(coords[u][1] for u in g.rotations[v]) / g.degree(v)
        if math.hypot(coords[v][0] - mx, coords[v][1] - my) >= 1e-9:
            raise DegenerateLayout(f"residual too large at vertex {v}")
    # Bucket the vertices into square cells of side COINCIDE: two points
    # closer than that lie in the same or neighbouring cells.  The first v
    # with a close w > v, and its smallest such w, are the first pair in
    # lexicographic order.
    cells: dict[tuple[int, int], list[int]] = {}
    keys = [(math.floor(x / COINCIDE), math.floor(y / COINCIDE)) for x, y in coords]
    for v, key in enumerate(keys):
        cells.setdefault(key, []).append(v)
    for v, (cx, cy) in enumerate(keys):
        close = [
            w
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
            for w in cells.get((cx + dx, cy + dy), ())
            if w > v and math.dist(coords[v], coords[w]) < COINCIDE
        ]
        if close:
            raise DegenerateLayout(f"vertices {v} and {min(close)} coincide")
    return coords


SCALE = 70.0  # drawing units per layout unit
MARGIN = 40.0
VERTEX_RADIUS = 7.0
EDGE_WIDTH = 1.6
CURVE_WIDTH = 2.4
CORNER_PULL = 0.45  # how far a curve bends into the corner it cuts off


def _hex_color(h: float, s: float, v: float) -> str:
    r, g, b = colorsys.hsv_to_rgb(h % 1.0, s, v)
    return f"#{round(r * 255):02x}{round(g * 255):02x}{round(b * 255):02x}"


def _fmt(x: float) -> str:
    # finite coordinates can still overflow once shifted and scaled
    if not math.isfinite(x):
        raise BadParameter(
            "coordinates span too far to draw: an SVG number overflows"
        )
    return f"{x:.6f}"


def _corner_control(
    g: PlaneGraph,
    coords: tuple[tuple[float, float], ...],
    d_in: int,
    pull: float,
) -> tuple[float, float]:
    """Quadratic control point: into the face wedge at the corner that the
    medial edge of dart d_in cuts off."""
    d_out = g.dart_next[d_in]
    a, v, b = g.dart_tail[d_in], g.dart_head[d_in], g.dart_head[d_out]
    pa, pv, pb = coords[a], coords[v], coords[b]
    theta_a = math.atan2(pa[1] - pv[1], pa[0] - pv[0])
    theta_b = math.atan2(pb[1] - pv[1], pb[0] - pv[0])
    spread = (theta_b - theta_a) % (2 * math.pi)
    bis = theta_a + spread / 2
    reach = pull * 0.5 * min(math.dist(pa, pv), math.dist(pb, pv))
    return (pv[0] + reach * math.cos(bis), pv[1] + reach * math.sin(bis))


def render_svg(
    g: PlaneGraph, cycles: Sequence[Cycle] = (), coloring: Coloring | None = None
) -> str:
    """Deterministic SVG: base edges, one colored path per closed curve of
    one dividing system of g, vertices filled by the coloring when given."""
    if coloring is not None and len(coloring.colors) != g.n:
        raise BadParameter("coloring does not cover every vertex")

    coords = g.coords if g.coords is not None else tutte_embedding(g)
    xs = [x for x, _ in coords]
    ys = [y for _, y in coords]
    min_x, max_y = min(xs), max(ys)
    span_x = max(xs) - min_x or 1.0
    span_y = max_y - min(ys) or 1.0

    def tx(p: tuple[float, float]) -> tuple[float, float]:
        return (
            MARGIN + (p[0] - min_x) * SCALE,
            MARGIN + (max_y - p[1]) * SCALE,  # y grows downward
        )

    width = 2 * MARGIN + span_x * SCALE
    height = 2 * MARGIN + span_y * SCALE

    def midpoint(edge_id: int) -> tuple[float, float]:
        u, v = g.edges[edge_id]
        return (
            (coords[u][0] + coords[v][0]) / 2,
            (coords[u][1] + coords[v][1]) / 2,
        )

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f'<rect width="{_fmt(width)}" height="{_fmt(height)}" fill="#ffffff"/>',
        f'<g stroke="#555555" stroke-width="{_fmt(EDGE_WIDTH)}">',
    ]
    for u, v in g.edges:
        (x1, y1), (x2, y2) = tx(coords[u]), tx(coords[v])
        out.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
            f'x2="{_fmt(x2)}" y2="{_fmt(y2)}"/>'
        )
    out.append("</g>")

    if cycles:
        out.append(f'<g fill="none" stroke-width="{_fmt(CURVE_WIDTH)}">')
        for j, cyc in enumerate(cycles):
            x0, y0 = tx(midpoint(cyc.vertices[0]))
            path = [f"M {_fmt(x0)} {_fmt(y0)}"]
            for i, d in enumerate(cyc.edges):
                cx, cy = tx(_corner_control(g, coords, d, CORNER_PULL))
                nx_, ny_ = tx(midpoint(cyc.vertices[(i + 1) % len(cyc.vertices)]))
                path.append(
                    f"Q {_fmt(cx)} {_fmt(cy)} {_fmt(nx_)} {_fmt(ny_)}"
                )
            path.append("Z")
            stroke = _hex_color(j / max(len(cycles), 1) + 0.08, 0.85, 0.72)
            out.append(f'<path d="{" ".join(path)}" stroke="{stroke}"/>')
        out.append("</g>")

    out.append('<g stroke="#000000" stroke-width="1.000000">')
    for v in range(g.n):
        x, y = tx(coords[v])
        if coloring is not None:
            k = coloring.num_colors
            fill = _hex_color(coloring.colors[v] / max(k, 1), 0.45, 0.95)
        else:
            fill = "#ffffff"
        out.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" '
            f'r="{_fmt(VERTEX_RADIUS)}" fill="{fill}"/>'
        )
    out.append("</g>")

    size = VERTEX_RADIUS * 1.1
    out.append(
        f'<g font-family="Helvetica" font-size="{_fmt(size)}" '
        f'text-anchor="middle">'
    )
    for v in range(g.n):
        x, y = tx(coords[v])
        out.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y + size * 0.35)}">{v}</text>'
        )
    out.append("</g>")

    out.append("</svg>")
    return "\n".join(out) + "\n"
