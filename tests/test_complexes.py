import pytest

from starqec.complexes import (
    CellComplex2D,
    ComplexFormatError,
    build_complex,
    parse_complex,
    small_stellated_dodecahedron_complex,
)

from oracles import format_complex

SQUARE_PATCH = """\
# one square face
vertices 4
edge 0 1
edge 1 2
edge 2 3
edge 0 3
face 0 1 2 3
"""


def test_parse_square_patch():
    c = parse_complex(SQUARE_PATCH)
    assert c.vertex_count == 4
    assert c.edge_count == 4
    assert c.faces == ((0, 1, 2, 3),)


def test_roundtrip():
    c = parse_complex(SQUARE_PATCH)
    again = parse_complex(format_complex(c))
    assert again.edges == c.edges
    assert again.faces == c.faces


def test_canonical_edge_order():
    # edge lines in scrambled order and orientation still give sorted qubits
    text = "vertices 4\nedge 3 0\nedge 2 1\nedge 1 0\nedge 2 3\nface 0 1 2 3\n"
    c = parse_complex(text)
    assert c.edges == ((0, 1), (0, 3), (1, 2), (2, 3))


@pytest.mark.parametrize(
    "text,line",
    [
        ("vertices 4\nedge 0\n", 2),
        ("vertices x\n", 1),
        ("edge 0 1\n", 1),
        ("vertices 4\nedge 0 9\n", 2),
        ("vertices 4\nedge 0 1\nunknown 1\n", 3),
        ("vertices 4\nedge 0 0\n", 2),
        ("vertices 2\nedge 0 1\nface 0 1\n", 3),
        # a digit that str.isdigit() passes and int() refuses
        ("vertices \u00b2\nedge 0 1\n", 1),
        # checks that need every edge name the face's or the repeated edge's line
        ("vertices 4\nedge 0 1\nedge 1 2\nedge 0 2\nface 0 1 9\n", 5),
        ("vertices 4\nface 0 1 5\nedge 0 1\nedge 1 2\nedge 0 2\n", 2),
        ("vertices 4\nedge 0 1\nedge 1 2\nedge 1 0\nface 0 1 2\n", 4),
        ("vertices 4\nedge 0 1\nedge 1 2\nedge 0 2\nface 0 1 2\nface 0 1 1\n", 6),
        # an open face: vertices 2 and 3 each meet one of its edges
        ("vertices 4\nedge 0 1\nedge 1 2\nedge 2 3\nedge 0 3\nface 0 1 2\nface 0 1 2 3\n", 6),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ComplexFormatError, match=f"^line {line}: ") as err:
        parse_complex(text)
    assert err.value.line_no == line


@pytest.mark.parametrize("count", [5, 200_000])
def test_isolated_vertex_names_vertices_line(count):
    # a vertex that meets no edge would be a weight-0 X check
    text = f"# square\nvertices {count}\nedge 0 1\nedge 1 2\nedge 2 3\nedge 0 3\nface 0 1 2 3\n"
    with pytest.raises(ComplexFormatError, match=f"^line 2: vertices {count}: vertex 4 meets no edge$"):
        parse_complex(text)


def test_ssd_complex_structure():
    c = small_stellated_dodecahedron_complex()
    assert (c.vertex_count, c.edge_count, c.face_count) == (12, 30, 12)
    assert c.euler_characteristic() == -6
    # every face is a pentagram (5 edges), every edge lies in exactly 2 faces
    assert all(len(f) == 5 for f in c.faces)
    usage = [0] * 30
    for f in c.faces:
        for e in f:
            usage[e] += 1
    assert usage == [2] * 30
    # every vertex has 5 incident edges
    assert all(len(c.vertex_star(v)) == 5 for v in range(12))


def test_build_complex_rejects_bad_faces():
    with pytest.raises(ValueError):
        CellComplex2D(3, ((0, 1), (1, 2)), ((0, 1),))  # face with 2 edges
    with pytest.raises(ValueError):
        CellComplex2D(3, ((0, 1), (0, 1)), ())  # duplicate edge
    with pytest.raises(ValueError, match="not closed: .* vertex 2$"):
        build_complex(4, [(0, 1), (1, 2), (2, 3), (0, 3)], faces_by_index=[[0, 1, 3]])


def test_build_complex_by_pairs():
    c = build_complex(3, [(0, 1), (1, 2), (0, 2)], faces_by_pairs=[[(0, 1), (1, 2), (0, 2)]])
    assert set(c.faces[0]) == {0, 1, 2}
