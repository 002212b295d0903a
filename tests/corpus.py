"""Shared instances and small math helpers for the test suite."""

from __future__ import annotations

import random
from math import comb

# add_path, k2m_instance and tight_instance are gen's; the tests import them
# from here with the rest of the corpus
from halfmono.instance_io import (
    InstanceFile,
    add_path,
    build,
    cycle_instance,
    grid_instance,
    k2m_instance,
    prism_instance,
    subdivide_edge,
    tight_instance,
)
from halfmono.plane_graph import PlaneGraph


def bell(n: int) -> int:
    """Number of set partitions of an n-element set."""
    b = [1]
    for m in range(n):
        b.append(sum(comb(m, k) * b[k] for k in range(m + 1)))
    return b[n]


def cycle_graph(length: int) -> PlaneGraph:
    return build(cycle_instance(length))


def grid_graph(rows: int, cols: int) -> PlaneGraph:
    return build(grid_instance(rows, cols))


def prism_graph(cycle_len: int) -> PlaneGraph:
    return build(prism_instance(cycle_len))


def face_darts(g: PlaneGraph) -> list[range]:
    """Per face, its darts in walk order: face_start[f] .. face_start[f + 1] - 1."""
    fs = g.face_start
    return [range(s, e) for s, e in zip(fs, fs[1:])]


def face_vertices(g: PlaneGraph) -> list[tuple[int, ...]]:
    """Per face, its boundary vertices in walk order: its darts' tails."""
    return [g.dart_tail[d.start:d.stop] for d in face_darts(g)]


def instance_edges(inst: InstanceFile) -> list[tuple[int, int]]:
    return sorted(
        {(min(u, v), max(u, v)) for u, neigh in enumerate(inst.rotations) for v in neigh}
    )


def random_subdivided_instance(seed: int, max_vertices: int = 10) -> InstanceFile:
    """A seeded quadrangulation-like instance: a small grid with random
    edges each subdivided twice (which keeps every face degree even)."""
    rng = random.Random(seed)
    rows, cols = rng.choice([(2, 2), (2, 3), (2, 4)])
    inst = grid_instance(rows, cols)
    max_pairs = (max_vertices - inst.n) // 2
    for _ in range(rng.randint(1, max_pairs)):
        u, v = rng.choice(instance_edges(inst))
        inst = subdivide_edge(inst, u, v, times=2)
    return inst._replace(name=f"subgrid{rows}x{cols}-s{seed}")


def split_base_instance(seed: int) -> InstanceFile:
    """The graph random_split_instance(seed) splits a face of: a grid with up
    to 3 x 4 vertices and up to two random edges each subdivided twice."""
    rng = random.Random(seed)
    inst = grid_instance(*rng.choice([(2, 3), (2, 4), (3, 3), (3, 4)]))
    for _ in range(rng.randint(0, 2)):
        u, v = rng.choice(instance_edges(inst))
        inst = subdivide_edge(inst, u, v, times=2)
    return inst


def split_face(inst: InstanceFile, rng: random.Random) -> InstanceFile:
    """inst with one random face split by a fresh path.

    The path has l >= 1 edges and joins two boundary vertices at walk
    distance d of one face, with d + l even: the face of degree D becomes
    faces of degree d + l and D - d + l, both even and both >= 4.  Faces
    sharing several vertices and vertices of degree up to 5 arise.
    Coordinates are dropped, as the new path has no natural drawing.
    """
    faces = face_vertices(build(inst))
    while True:
        walk = rng.choice(faces)
        i, j = sorted(rng.sample(range(len(walk)), 2))
        d = j - i
        length = rng.choice([k for k in (1, 2, 3) if (d + k) % 2 == 0])
        u, v = walk[i], walk[j]
        chord = length == 1 and v in inst.rotations[u]  # would be a double edge
        if min(d, len(walk) - d) + length >= 4 and not chord:
            break
    return add_path(inst, walk, i, j, length)


def relabelled_instance(inst: InstanceFile, perm) -> InstanceFile:
    """The same embedded graph with vertex v renamed perm[v]."""
    rotations = [()] * inst.n
    coords = [None] * inst.n
    for v, rot in enumerate(inst.rotations):
        rotations[perm[v]] = tuple(perm[u] for u in rot)
        if inst.coords:
            coords[perm[v]] = inst.coords[v]
    return InstanceFile(
        f"{inst.name}-relabelled",
        inst.n,
        tuple(rotations),
        tuple(coords) if inst.coords else None,
    )


def random_split_instance(seed: int) -> InstanceFile:
    """split_base_instance(seed) with one face split (split_face)."""
    inst = split_base_instance(seed)
    split = split_face(inst, random.Random(f"split{seed}"))
    return split._replace(name=f"split-{inst.name}-s{seed}")


def fan_instance(length: int) -> InstanceFile:
    """The cycle C_{2L}, L = length >= 2, plus L - 1 black vertices inside.

    Fresh vertex 2L + i joins the white vertices 2i + 1 and 2i + 3 and cuts
    the quadrangle through 2i + 2 off the inner face, so every face stays
    even.  The black side has 2L - 1 vertices and the white side L, so
    n = 3L - 1 and alpha = 2L - 1.  Vertex 2L + i is drawn halfway between
    the centre and vertex 2i + 2.
    """
    cycle = cycle_instance(2 * length)
    rotations = [list(r) for r in cycle.rotations]
    coords = list(cycle.coords)
    for i in range(length - 1):
        fresh, a, b = 2 * length + i, 2 * i + 1, 2 * i + 3
        # counterclockwise, the inside of the cycle at vertex v lies between
        # v + 1 and v - 1, and the newest fresh vertex is nearest v + 1
        rotations[a].insert(1, fresh)
        rotations[b].insert(1, fresh)
        rotations.append([a, b])
        x, y = coords[2 * i + 2]
        coords.append((x / 2, y / 2))
    return InstanceFile(
        f"fan{length}", 3 * length - 1, tuple(map(tuple, rotations)), tuple(coords)
    )


def random_rich_instance(seed: int) -> InstanceFile:
    """A seeded instance beyond grids: a grid up to 3 x 4 or 2 x 5, prism 4
    or 6, or K_{2,m} with m <= 7; then 0-4 random edges each subdivided 2 or
    4 times, then 0-3 face splits (split_face)."""
    rng = random.Random(f"rich{seed}")
    make, params = rng.choice(
        [(grid_instance, rc) for rc in ((2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4))]
        + [(prism_instance, (m,)) for m in (4, 6)]
        + [(k2m_instance, (m,)) for m in range(2, 8)]
    )
    inst = make(*params)
    for _ in range(rng.randint(0, 4)):
        u, v = rng.choice(instance_edges(inst))
        inst = subdivide_edge(inst, u, v, times=rng.choice((2, 4)))
    for _ in range(rng.randint(0, 3)):
        inst = split_face(inst, rng)
    return inst._replace(name=f"rich-{inst.name}-s{seed}")


def corpus_instances() -> list[InstanceFile]:
    """The full verification corpus: even cycles, grids, even prisms."""
    out = [cycle_instance(m) for m in (4, 6, 8, 10, 12)]
    out += [grid_instance(r, c) for r, c in ((2, 3), (2, 4), (3, 3), (3, 4), (4, 4), (4, 5))]
    out += [prism_instance(m) for m in (4, 6, 8)]
    return out


def corpus_graphs() -> list[tuple[str, PlaneGraph]]:
    return [(inst.name, build(inst)) for inst in corpus_instances()]


def oracle_corpus_graphs() -> list[tuple[str, PlaneGraph]]:
    """Instances small enough for the partition-scan oracle (<= 10 vertices)."""
    named = [
        cycle_instance(4),
        cycle_instance(6),
        cycle_instance(8),
        grid_instance(2, 3),
        grid_instance(2, 4),
    ]
    named += [random_subdivided_instance(seed) for seed in range(25)]
    return [(inst.name, build(inst)) for inst in named]


def random_subdivided_graphs() -> list[tuple[str, PlaneGraph]]:
    """Sixty seeded subdivided grids with up to 16 vertices (F <= 12)."""
    graphs = [
        (f"s{seed}", build(random_subdivided_instance(seed, 16))) for seed in range(60)
    ]
    assert all(g.num_faces <= 12 for _, g in graphs)
    return graphs


def random_split_graphs() -> list[tuple[str, PlaneGraph]]:
    """Thirty seeded split instances (F <= 14)."""
    graphs = [(f"split{seed}", build(random_split_instance(seed))) for seed in range(30)]
    assert all(g.num_faces <= 14 for _, g in graphs)
    return graphs


def random_rich_graphs() -> list[tuple[str, PlaneGraph]]:
    """A hundred seeded rich instances (F <= 12)."""
    graphs = [
        (f"rich{seed}", build(random_rich_instance(seed))) for seed in range(100)
    ]
    assert all(g.num_faces <= 12 for _, g in graphs)
    return graphs
