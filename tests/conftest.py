import pytest

from starqec.codes import builtin_ssd, builtin_surface17
from starqec.engine import Simulator


@pytest.fixture(scope="session")
def ssd_code():
    return builtin_ssd()


@pytest.fixture(scope="session")
def s17_code():
    return builtin_surface17()


@pytest.fixture(scope="session")
def ssd_sim():
    return Simulator.for_builtin("ssd")


@pytest.fixture(scope="session")
def s17_sim():
    return Simulator.for_builtin("surface17")


def toric_cplx(l: int, m: int) -> str:
    """Complex file of the l x m square tiling of the torus (l, m >= 3): qubits
    on its 2lm edges, X checks on its lm vertices and Z checks on its lm
    square faces, which gives the toric code [[2lm, 2, min(l, m)]]."""
    def edge(a, b):
        return tuple(sorted((a[0] % l * m + a[1] % m, b[0] % l * m + b[1] % m)))

    squares = [[edge((i, j), (i, j + 1)), edge((i + 1, j), (i + 1, j + 1)),
                edge((i, j), (i + 1, j)), edge((i, j + 1), (i + 1, j + 1))]
               for i in range(l) for j in range(m)]
    edges = sorted({e for square in squares for e in square})
    index = {e: k for k, e in enumerate(edges)}
    lines = [f"vertices {l * m}", *(f"edge {u} {v}" for u, v in edges)]
    lines += ["face " + " ".join(str(index[e]) for e in square) for square in squares]
    return "\n".join(lines) + "\n"
