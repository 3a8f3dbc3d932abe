import numpy as np
import pytest

from starqec.codes import CssCode, code_from_complex, get_builtin_code
from starqec.complexes import build_complex, parse_complex
from starqec.gf2 import BitMatrix
from itertools import islice, permutations

from starqec.scheduling import (
    CnotSchedule,
    Coloring,
    ScheduleError,
    SchedulingGraph,
    build_check_graph,
    build_interleaved_graph,
    dsatur_color,
    format_schedule,
    parse_schedule,
    properness_rule,
    schedule_from_colorings,
    schedule_from_interleaved_coloring,
    shuffled_priority,
    verify_properness,
)
from starqec.faulttol import builtin_schedule, find_fault_tolerant_schedule

from conftest import toric_cplx
from oracles import from_rows, is_valid_coloring


def single_check_code(weight: int) -> CssCode:
    hx = from_rows([[1] * weight])
    hz = BitMatrix(rows=(), cols=weight)
    return CssCode(n=weight, hx=hx, hz=hz, logical_x=(), logical_z=(), name="one-check")


def honeycomb_torus(l: int, m: int):
    """{6,3}-tiling of the torus: 2lm vertices, 3lm edges, lm hexagon faces."""
    def a(i, j):
        return 2 * ((i % l) * m + (j % m))

    def b(i, j):
        return a(i, j) + 1

    edges = []
    for i in range(l):
        for j in range(m):
            edges.append((a(i, j), b(i, j)))          # e1
            edges.append((b(i, j), a(i + 1, j)))      # e2
            edges.append((b(i, j), a(i, j + 1)))      # e3

    def e1(i, j):
        return 3 * ((i % l) * m + (j % m))

    def e2(i, j):
        return e1(i, j) + 1

    def e3(i, j):
        return e1(i, j) + 2

    faces = []
    for i in range(l):
        for j in range(m):
            faces.append(
                [e1(i, j), e2(i, j), e3(i + 1, j - 1), e1(i + 1, j - 1), e2(i, j - 1), e3(i, j - 1)]
            )
    return build_complex(2 * l * m, edges, faces_by_index=faces, name="honeycomb-torus")


@pytest.fixture(scope="module")
def hex_code():
    return code_from_complex(honeycomb_torus(3, 3))


class TestGraphs:
    def test_triangle_from_single_weight3_check(self):
        g = build_check_graph(single_check_code(3), "X")
        assert len(g.vertices) == 3
        assert g.max_degree == 2
        coloring = dsatur_color(g)
        assert coloring.num_colors == 3 and is_valid_coloring(coloring)

    def test_path_two_colors(self):
        vertices = tuple((i, "X", 0) for i in range(4))
        adjacency = (frozenset({1}), frozenset({0, 2}), frozenset({1, 3}), frozenset({2}))
        coloring = dsatur_color(SchedulingGraph(vertices, adjacency))
        assert coloring.num_colors == 2 and is_valid_coloring(coloring)

    def test_ssd_check_graph_shape(self, ssd_code):
        gx = build_check_graph(ssd_code, "X")
        assert len(gx.vertices) == 60  # 30 qubits x degree 2
        assert g_degrees(gx) == {5}
        gz = build_check_graph(ssd_code, "Z")
        assert len(gz.vertices) == 60
        assert gz.max_degree == 5

    def test_hex_tiling_degrees(self, hex_code):
        assert set(hex_code.z_check_weights()) == {6}
        assert set(hex_code.x_check_weights()) == {3}
        assert build_check_graph(hex_code, "Z").max_degree == 6
        assert build_check_graph(hex_code, "X").max_degree == 3
        assert build_interleaved_graph(hex_code).max_degree == 2 + 6

    def test_ssd_interleaved_graph(self, ssd_code):
        g = build_interleaved_graph(ssd_code)
        assert len(g.vertices) == 120
        assert g.max_degree == 2 + 5
        per_qubit = {}
        for q, _k, _r in g.vertices:
            per_qubit[q] = per_qubit.get(q, 0) + 1
        assert set(per_qubit.values()) == {4}

    def test_single_check_interleaved_reduces_to_check_graph(self):
        code = single_check_code(4)
        gi = build_interleaved_graph(code)
        gx = build_check_graph(code, "X")
        assert len(gi.vertices) == len(gx.vertices)
        assert gi.max_degree == gx.max_degree

    def test_dsatur_respects_brooks_bound_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(4, 40))
            adj = [set() for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.2:
                        adj[i].add(j)
                        adj[j].add(i)
            g = SchedulingGraph(
                tuple((i, "X", 0) for i in range(n)), tuple(frozenset(a) for a in adj)
            )
            coloring = dsatur_color(g, shuffled_priority(n, int(rng.integers(100))))
            assert is_valid_coloring(coloring)
            assert coloring.num_colors <= g.max_degree + 1

    def test_coloring_count_at_least_max_check_weight(self, ssd_code, s17_code):
        for code in (ssd_code, s17_code):
            g = build_interleaved_graph(code)
            coloring = dsatur_color(g)
            assert coloring.num_colors >= max(
                max(code.x_check_weights()), max(code.z_check_weights())
            )


def g_degrees(g):
    return {len(a) for a in g.adjacency}


class TestSchedules:
    def test_ssd_sequential_schedule(self, ssd_code):
        res = find_fault_tolerant_schedule(ssd_code)
        assert res.schedule.steps == 10
        assert res.schedule.total_timesteps == 12
        assert res.colors_x == res.colors_z == 5

    def test_single_check_schedule_steps(self):
        code = single_check_code(5)
        gx = build_check_graph(code, "X")
        gz = build_check_graph(code, "Z")
        sched = schedule_from_colorings(code, dsatur_color(gx), dsatur_color(gz))
        assert sched.steps == 5

    def test_schedule_invariants_rejected(self):
        with pytest.raises(ScheduleError):
            CnotSchedule("separate", 2, ((1, "X", 0, 0), (1, "X", 1, 0)))  # qubit busy twice
        with pytest.raises(ScheduleError):
            CnotSchedule("separate", 2, ((1, "X", 0, 0), (1, "X", 0, 1)))  # check busy twice
        with pytest.raises(ScheduleError):
            CnotSchedule("separate", 1, ((2, "X", 0, 0),))  # step out of range
        with pytest.raises(ScheduleError):
            CnotSchedule("bogus", 1, ())

    def test_schedule_must_cover_code(self, s17_code):
        sched = builtin_schedule("surface17")
        missing = CnotSchedule("separate", sched.steps, sched.cnots[:-1])
        with pytest.raises(ScheduleError):
            missing.validate_against(s17_code)

    def test_invalid_coloring_rejected(self, s17_code):
        gx = build_check_graph(s17_code, "X")
        bad = dsatur_color(gx)
        bad = type(bad)(bad.graph, tuple(0 for _ in bad.colors))
        gz = build_check_graph(s17_code, "Z")
        with pytest.raises(ScheduleError, match="^check X0 busy twice in step 1$"):
            schedule_from_colorings(s17_code, bad, dsatur_color(gz))

    def test_invalid_coloring_names_busy_qubit(self):
        # two X checks sharing qubit 1; incidences (0,X0) (1,X0) (1,X1) (2,X1),
        # each check's two colors distinct, qubit 1's two colors equal
        code = CssCode(3, from_rows([[1, 1, 0], [0, 1, 1]]), BitMatrix(rows=(), cols=3), (), ())
        gx, gz = build_check_graph(code, "X"), build_check_graph(code, "Z")
        bad = Coloring(gx, (0, 1, 1, 0))
        assert not is_valid_coloring(bad)
        with pytest.raises(ScheduleError, match="^qubit 1 busy twice in step 2$"):
            schedule_from_colorings(code, bad, dsatur_color(gz))

    def test_file_roundtrip(self, ssd_code):
        sched = builtin_schedule("ssd")
        again = parse_schedule(format_schedule(sched))
        assert again == sched
        again.validate_against(ssd_code)

    def test_parse_errors(self):
        with pytest.raises(ScheduleError):
            parse_schedule("steps 4\ncnot 1 X 0 0\n")  # missing mode
        with pytest.raises(ScheduleError):
            parse_schedule("mode separate\nsteps 2\ncnot 1 Y 0 0\n")
        with pytest.raises(ScheduleError):
            parse_schedule("mode separate\nsteps 2\nbogus\n")

    @pytest.mark.parametrize("text, line", [
        ("mode\nsteps 1\ncnot 1 X 0 0\n", 1),
        ("mode separate\nsteps\ncnot 1 X 0 0\n", 2),
        ("mode separate\nsteps one\ncnot 1 X 0 0\n", 2),
        ("mode separate\nsteps -1\n", 2),
        ("mode separate\nsteps 1\ncnot 1 X 0 q0\n", 3),
        ("mode separate\nsteps 1\ncnot 1.0 X 0 0\n", 3),
        # idle steps past the last CNOT: refused before any circuit is built
        ("mode separate\n# comment\nsteps 99999999999\ncnot 1 X 0 0\n", 3),
        ("mode separate\nsteps 2\ncnot 1 X 0 0\n", 2),
        ("mode sideways\nsteps 1\ncnot 1 X 0 0\n", 1),
        # the CNOT checks of CnotSchedule, each naming the CNOT's line
        ("mode separate\nsteps 5\ncnot 0 X 0 0\n", 3),
        ("mode separate\nsteps 5\ncnot 5 X 0 0\ncnot 7 X 0 1\n", 4),
        ("mode separate\ncnot 1 X 0 0\nsteps 1\ncnot 1 X 0 0\n", 4),
        ("mode separate\nsteps 1\ncnot 1 X 0 0\ncnot 1 X 1 0\n", 4),
        ("mode separate\nsteps 1\ncnot 1 X 0 0\n\ncnot 1 X 0 1\n", 5),
    ])
    def test_malformed_line_is_named(self, text, line):
        with pytest.raises(ScheduleError, match=f"^line {line}: "):
            parse_schedule(text)


class TestProperness:
    def test_separate_schedules_automatically_proper(self, ssd_code, s17_code):
        for name, code in (("ssd", ssd_code), ("surface17", s17_code)):
            assert verify_properness(code, builtin_schedule(name)).ok

    @pytest.mark.parametrize("name", ["ssd", "surface17", "torus3", "torus4"])
    def test_separate_schedules_from_random_colorings_proper(self, name):
        # every X-check step of a separate schedule precedes every Z-check
        # step, so any pair of checks meets its shared qubits X first:
        # schedules built from random valid colorings (random vertex order,
        # a random free color out of a few spare ones) are all proper
        if name.startswith("torus"):
            code = code_from_complex(parse_complex(toric_cplx(int(name[5:]), int(name[5:]))))
        else:
            code = get_builtin_code(name)
        rng = np.random.default_rng(2020)

        def random_coloring(graph):
            colors = [-1] * len(graph.vertices)  # -1: not colored yet
            palette = range(graph.max_degree + 1 + int(rng.integers(0, 3)))
            for v in rng.permutation(len(colors)).tolist():
                taken = {colors[u] for u in graph.adjacency[v]}
                colors[v] = int(rng.choice([c for c in palette if c not in taken]))
            coloring = Coloring(graph, tuple(colors))
            assert is_valid_coloring(coloring)
            return coloring

        gx, gz = build_check_graph(code, "X"), build_check_graph(code, "Z")
        for _ in range(20):
            schedule = schedule_from_colorings(code, random_coloring(gx), random_coloring(gz))
            assert verify_properness(code, schedule).ok

    def test_improper_interleaving_detected(self):
        # X and Z check sharing qubits {0,1}: qubit 0 sees X then Z while
        # qubit 1 sees Z then X, which randomizes both outcomes
        code = CssCode(
            n=2,
            hx=from_rows([[1, 1]]),
            hz=from_rows([[1, 1]]),
            logical_x=(),
            logical_z=(),
            name="pair",
        )
        improper = CnotSchedule(
            "interleaved",
            4,
            ((1, "X", 0, 0), (2, "Z", 0, 0), (3, "Z", 0, 1), (4, "X", 0, 1)),
        )
        report = verify_properness(code, improper)
        assert not report.ok
        assert report.improper_pairs == [(0, 0, (0, 1))]
        proper = CnotSchedule(
            "interleaved",
            4,
            ((1, "X", 0, 0), (2, "Z", 0, 0), (3, "X", 0, 1), (4, "Z", 0, 1)),
        )
        assert verify_properness(code, proper).ok

    def test_disjoint_checks_vacuously_proper(self):
        code = CssCode(
            n=4,
            hx=from_rows([[1, 1, 0, 0]]),
            hz=from_rows([[0, 0, 1, 1]]),
            logical_x=(),
            logical_z=(),
        )
        sched = CnotSchedule(
            "interleaved",
            2,
            ((1, "X", 0, 0), (2, "X", 0, 1), (1, "Z", 0, 2), (2, "Z", 0, 3)),
        )
        assert verify_properness(code, sched).ok

    def test_interleaved_coloring_schedule_valid(self, hex_code):
        g = build_interleaved_graph(hex_code)
        sched = schedule_from_interleaved_coloring(hex_code, dsatur_color(g))
        assert sched.mode == "interleaved"
        sched.validate_against(hex_code)


def direct_improper_pairs(code, schedule):
    """The improper even-overlap pairs, read pair by pair from the schedule."""
    out = []
    for xi, rx in enumerate(code.hx.rows):
        for zj, rz in enumerate(code.hz.rows):
            qubits = tuple(q for q in range(code.n) if (rx & rz) >> q & 1)
            if qubits and len(qubits) % 2 == 0 and len(
                {schedule.step_of("X", xi, q) < schedule.step_of("Z", zj, q) for q in qubits}
            ) != 1:
                out.append((xi, zj, qubits))
    return out


class TestPropernessRule:
    @pytest.mark.parametrize("fixture", ["hex_code", "s17_code", "ssd_code"])
    def test_verdict_on_coloring_matches_built_schedule(self, fixture, request):
        code = request.getfixturevalue(fixture)
        rule = properness_rule(code)
        verdicts = []

        def agree(times, schedule):
            report = verify_properness(code, schedule)
            assert rule.is_proper(times) == report.ok
            assert report.improper_pairs == direct_improper_pairs(code, schedule)
            verdicts.append(report.ok)

        def relabeled(coloring, count):
            for perm in islice(permutations(range(coloring.num_colors)), count):
                yield Coloring(coloring.graph, tuple(perm[c] for c in coloring.colors))

        def colorings(graph, count):
            return [dsatur_color(graph, shuffled_priority(len(graph.vertices), a))
                    for a in range(count)]

        # interleaved: DSATUR colorings and their first slot relabelings
        graph = build_interleaved_graph(code)
        for coloring in colorings(graph, 3):
            for candidate in relabeled(coloring, 24):
                agree(candidate.colors, schedule_from_interleaved_coloring(code, candidate))
        # separate: X and Z colorings, each relabeled, Z steps after X steps
        pairs = zip(colorings(build_check_graph(code, "X"), 3),
                    colorings(build_check_graph(code, "Z"), 3))
        for x, z in pairs:
            for cx in relabeled(x, 4):
                for cz in relabeled(z, 6):
                    times = cx.colors + tuple(x.num_colors + c for c in cz.colors)
                    agree(times, schedule_from_colorings(code, cx, cz))
            # X then Z as one interleaved coloring, its slots rotated: X block
            # first, Z block first, or a block split around the wrap
            total = x.num_colors + z.num_colors
            blocks = x.colors + tuple(x.num_colors + c for c in z.colors)
            for shift in range(total):
                rotated = tuple((t + shift) % total for t in blocks)
                agree(rotated, schedule_from_interleaved_coloring(code, Coloring(graph, rotated)))
        assert True in verdicts and False in verdicts
