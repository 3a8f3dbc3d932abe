"""2D cell complexes (vertices, edges, faces) and their on-disk format.

A complex file is plain text: a ``vertices N`` header, one ``edge u v``
line per edge and one ``face e1 e2 ...`` line per face, with ``#``
comments. Qubit indices are canonical: edges sorted lexicographically by
their (u, v) endpoint pair define the qubit ordering, and face lines
refer to those canonical edge indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path


class ComplexFormatError(ValueError):
    """Malformed complex definition file; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _face_problem(face: tuple[int, ...], edge_count: int) -> str | None:
    """Why ``face`` cannot be a face of a complex with ``edge_count`` edges, or None."""
    if len(face) < 3:
        return "every face needs at least 3 edges"
    bad = [e for e in face if not 0 <= e < edge_count]
    if bad:
        return f"face references invalid edge index {bad[0]}"
    if len(set(face)) != len(face):
        return "face repeats an edge"
    return None


@dataclass(frozen=True)
class CellComplex2D:
    """A 2-complex: qubits live on edges, X-checks on vertices, Z-checks on faces."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]  # (u, v) with u < v, sorted lexicographically
    faces: tuple[tuple[int, ...], ...]  # edge-index lists
    name: str = ""
    schlafli: str = ""

    def __post_init__(self):
        seen = set()
        prev = None
        for u, v in self.edges:
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u},{v}) has endpoint outside vertex range")
            if u >= v:
                raise ValueError(f"edge ({u},{v}) must satisfy u < v")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            if prev is not None and (u, v) < prev:
                raise ValueError("edges must be sorted lexicographically")
            seen.add((u, v))
            prev = (u, v)
        for face in self.faces:
            problem = _face_problem(face, len(self.edges))
            if problem:
                raise ValueError(problem)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def face_count(self) -> int:
        return len(self.faces)

    def euler_characteristic(self) -> int:
        return self.vertex_count - self.edge_count + self.face_count

    def edge_index(self, u: int, v: int) -> int:
        key = (u, v) if u < v else (v, u)
        return self._edge_lookup[key]

    @cached_property
    def _edge_lookup(self) -> dict[tuple[int, int], int]:
        return {e: i for i, e in enumerate(self.edges)}

    def vertex_star(self, v: int) -> list[int]:
        """Indices of edges incident to vertex v."""
        return [i for i, (a, b) in enumerate(self.edges) if a == v or b == v]


def build_complex(
    vertex_count: int,
    edges: list[tuple[int, int]],
    faces_by_pairs: list[list[tuple[int, int]]] | None = None,
    faces_by_index: list[list[int]] | None = None,
    name: str = "",
    schlafli: str = "",
) -> CellComplex2D:
    """Construct a complex with canonical edge ordering.

    Faces may be given either as endpoint pairs (``faces_by_pairs``) or as
    indices into the caller's ``edges`` list (``faces_by_index``); both are
    remapped onto the canonical sorted-edge indexing.
    """
    normalized = sorted({(min(u, v), max(u, v)) for u, v in edges})
    if len(normalized) != len(edges):
        raise ValueError("duplicate edges in input")
    lookup = {e: i for i, e in enumerate(normalized)}
    faces: list[tuple[int, ...]] = []
    if faces_by_pairs is not None:
        for face in faces_by_pairs:
            faces.append(tuple(lookup[(min(u, v), max(u, v))] for u, v in face))
    if faces_by_index is not None:
        original = [(min(u, v), max(u, v)) for u, v in edges]
        for face in faces_by_index:
            faces.append(tuple(lookup[original[e]] for e in face))
    return CellComplex2D(vertex_count, tuple(normalized), tuple(faces), name, schlafli)


def parse_complex(text: str, name: str = "") -> CellComplex2D:
    """Parse the complex file format; raises ComplexFormatError naming the
    line at fault."""
    vertex_count = None
    edges: set[tuple[int, int]] = set()
    faces: list[tuple[int, tuple[int, ...]]] = []  # (line number, edge indices)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind, args = parts[0], parts[1:]
        if kind == "vertices":
            if vertex_count is not None:
                raise ComplexFormatError(line_no, "duplicate vertices header")
            if len(args) != 1 or not (args[0].isascii() and args[0].isdigit()):
                raise ComplexFormatError(line_no, "expected: vertices N")
            vertex_count = int(args[0])
        elif kind == "edge":
            if vertex_count is None:
                raise ComplexFormatError(line_no, "edge before vertices header")
            if len(args) != 2:
                raise ComplexFormatError(line_no, "expected: edge u v")
            try:
                u, v = int(args[0]), int(args[1])
            except ValueError:
                raise ComplexFormatError(line_no, "edge endpoints must be integers") from None
            if u == v:
                raise ComplexFormatError(line_no, "self-loop edge")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ComplexFormatError(line_no, "edge endpoint out of range")
            edge = (min(u, v), max(u, v))
            if edge in edges:
                raise ComplexFormatError(line_no, "duplicate edge ({},{})".format(*edge))
            edges.add(edge)
        elif kind == "face":
            if len(args) < 3:
                raise ComplexFormatError(line_no, "a face needs at least 3 edge indices")
            try:
                faces.append((line_no, tuple(int(a) for a in args)))
            except ValueError:
                raise ComplexFormatError(line_no, "face entries must be integers") from None
        else:
            raise ComplexFormatError(line_no, f"unknown directive {kind!r}")
    if vertex_count is None:
        raise ComplexFormatError(1, "missing vertices header")
    # Face lines index canonical (sorted) edge order, known once every edge is read.
    for line_no, face in faces:
        problem = _face_problem(face, len(edges))
        if problem:
            raise ComplexFormatError(line_no, problem)
    return CellComplex2D(vertex_count, tuple(sorted(edges)), tuple(f for _l, f in faces), name=name)


def load_complex(path: str | Path) -> CellComplex2D:
    path = Path(path)
    return parse_complex(path.read_text(), name=path.stem)


# Icosahedron adjacency with vertex labels 0..11 chosen so that vertex 0's
# neighbors are {6,7,8,9,10} and the triangle/pentagram structure matches the
# shipped logical-operator tables (verified by the code-model test suite).
ICOSAHEDRON_NEIGHBORS: dict[int, tuple[int, ...]] = {
    0: (6, 7, 8, 9, 10),
    1: (3, 4, 7, 10, 11),
    2: (4, 5, 6, 8, 11),
    3: (1, 5, 7, 9, 11),
    4: (1, 2, 8, 10, 11),
    5: (2, 3, 6, 9, 11),
    6: (0, 2, 5, 8, 9),
    7: (0, 1, 3, 9, 10),
    8: (0, 2, 4, 6, 10),
    9: (0, 3, 5, 6, 7),
    10: (0, 1, 4, 7, 8),
    11: (1, 2, 3, 4, 5),
}


def _induced_cycle(neighbors: dict[int, tuple[int, ...]], center: int) -> list[tuple[int, int]]:
    """Edges of the 5-cycle induced on the neighbors of ``center`` in the icosahedron."""
    ring = list(neighbors[center])
    cycle_edges = []
    for i, u in enumerate(ring):
        for v in ring[i + 1 :]:
            if v in neighbors[u]:
                cycle_edges.append((min(u, v), max(u, v)))
    if len(cycle_edges) != len(ring):
        raise ValueError(f"neighbors of {center} do not induce a cycle")
    return cycle_edges


def small_stellated_dodecahedron_complex() -> CellComplex2D:
    """The small stellated dodecahedron as a 2-complex.

    Qubits sit on the 30 edges of the icosahedron skeleton; one pentagrammic
    face per vertex, made of the 5 edges joining that vertex's neighbors.
    """
    edges = sorted(
        (u, v) for u in ICOSAHEDRON_NEIGHBORS for v in ICOSAHEDRON_NEIGHBORS[u] if u < v
    )
    faces_by_pairs = [_induced_cycle(ICOSAHEDRON_NEIGHBORS, w) for w in range(12)]
    return build_complex(
        12,
        edges,
        faces_by_pairs=faces_by_pairs,
        name="small-stellated-dodecahedron",
        schlafli="{5/2,5}",
    )

