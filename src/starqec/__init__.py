"""starqec: homological CSS codes on star polyhedra with fault-tolerant
parity-check scheduling, lookup-table decoding and circuit-level noise
simulation."""

from .circuits import EcCircuit, Location, NoiseModel, build_ec_circuit
from .codes import (
    CssCode,
    builtin_ssd,
    builtin_surface17,
    code_from_complex,
    distance_upto,
    verify_logical_basis,
)
from .complexes import CellComplex2D, load_complex, parse_complex
from .decoder import LookupTable, build_lookup_table, ec_decision
from .engine import Simulator, TrialResult, count_cnot_pairs
from .faulttol import (
    builtin_schedule,
    enumerate_single_fault_errors,
    find_fault_tolerant_schedule,
    verify_unique_syndromes,
)
from .gf2 import BitMatrix, BitVector, mat_vec, rank, symplectic_product
from .results import fit_quadratic, m_copy_failure
from .scheduling import (
    CnotSchedule,
    build_check_graph,
    build_interleaved_graph,
    dsatur_color,
    schedule_from_colorings,
    verify_properness,
)

__version__ = "0.1.0"
