"""Lookup-table decoding: full syndrome-to-correction tables with the
fault-derived priority rule, and the three-syndrome EC decision protocol."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import EcCircuit
from .faulttol import detector_rows, enumerate_single_fault_errors, verify_unique_syndromes
from .gf2 import RowSpace, syndrome_bits


MAX_TABLE_ENTRIES = 1 << 20  # syndromes a full lookup table may have: 20 measured checks


class DecoderBuildError(RuntimeError):
    pass


@dataclass(frozen=True)
class LookupTable:
    """Correction table for one error type, indexed by packed syndrome.

    ``detect_rows`` are the measured opposite-type check masks defining the
    syndrome bits; ``corrections[s]`` is a data-error mask with syndrome s.
    ``overridden`` lists syndromes where a fault-derived weight-2 error
    replaced the generic minimum-weight entry.
    """

    kind: str  # error type corrected: 'X' or 'Z'
    n: int
    detect_rows: tuple[int, ...]
    corrections: tuple[int, ...]
    overridden: frozenset[int]

    @property
    def syndrome_count(self) -> int:
        return len(self.corrections)

    def correction(self, syndrome: int) -> int:
        return self.corrections[syndrome]

    def syndrome_of(self, error: int) -> int:
        return syndrome_bits(self.detect_rows, error)


def build_lookup_table(circuit: EcCircuit, kind: str) -> LookupTable:
    """Build the table for ``kind``-type errors of the one-round circuit's code.

    Entries are minimum-weight errors (breadth-first over weight, ties to the
    lexicographically smallest support); entries whose syndrome matches a
    fault-derived weight<=2 residual are forced to be logically equivalent to
    that residual, which requires the unique-syndrome check to pass first.
    A table of more than ``MAX_TABLE_ENTRIES`` syndromes is refused before
    anything is allocated for it.
    """
    code = circuit.code
    det = detector_rows(circuit, kind)
    size = 1 << len(det)
    if size > MAX_TABLE_ENTRIES:
        raise DecoderBuildError(
            f"a full {kind}-error lookup table needs 2^{len(det)} entries for "
            f"{len(det)} measured checks; the bound is {MAX_TABLE_ENTRIES} (2^20)"
        )
    uniqueness = verify_unique_syndromes(circuit)
    if not uniqueness.ok:
        raise DecoderBuildError(
            f"schedule fails the unique-syndrome condition: {uniqueness.collisions}"
        )
    column = [syndrome_bits(det, 1 << q) for q in range(code.n)]

    corrections: list[int | None] = [None] * size
    corrections[0] = 0
    frontier = [0]
    assigned = 1
    while frontier and assigned < size:
        next_frontier = []
        for s in frontier:
            e = corrections[s]
            for q in range(code.n):
                s2 = s ^ column[q]
                if corrections[s2] is None:
                    corrections[s2] = e | (1 << q)
                    next_frontier.append(s2)
                    assigned += 1
        frontier = next_frontier
    if assigned < size:
        raise DecoderBuildError(
            "syndrome map is not surjective; measured checks are not independent"
        )

    stabilizer = RowSpace.of_matrix(code.checks(kind))
    overridden = set()
    for residual in enumerate_single_fault_errors(circuit, kind):
        if residual == 0 or residual.bit_count() > 2:
            continue
        s = syndrome_bits(det, residual)
        if not stabilizer.contains(corrections[s] ^ residual):
            corrections[s] = residual
            overridden.add(s)

    return LookupTable(
        kind=kind,
        n=code.n,
        detect_rows=det,
        corrections=tuple(corrections),  # type: ignore[arg-type]
        overridden=frozenset(overridden),
    )


def build_tables(circuit: EcCircuit) -> dict[str, LookupTable]:
    """X- and Z-error tables of the one-round circuit; decoding of the two
    types is fully independent."""
    return {kind: build_lookup_table(circuit, kind) for kind in ("X", "Z")}


@dataclass(frozen=True)
class EcDecision:
    """Which syndrome (if any) the three-round protocol corrects on."""

    source: str  # 'none', 'repeated' or 'last'
    syndrome: int


def ec_decision(s1: int, s2: int, s3: int) -> EcDecision:
    """The three-round rule: two trivial syndromes mean no correction; else a
    repeated syndrome wins; else the last syndrome is used."""
    if (s1 == 0) + (s2 == 0) + (s3 == 0) >= 2:
        return EcDecision("none", 0)
    if s1 == s2 or s1 == s3:
        return EcDecision("repeated", s1)
    if s2 == s3:
        return EcDecision("repeated", s2)
    return EcDecision("last", s3)


def ec_decisions(s1: np.ndarray, s2: np.ndarray, s3: np.ndarray) -> np.ndarray:
    """``ec_decision``'s syndrome over arrays of syndrome triples. Two trivial
    syndromes are a repeated 0, so the no-correction case needs no branch."""
    return np.where((s1 == s2) | (s1 == s3), s1, s3)


def format_table(table: LookupTable) -> str:
    """Text dump: one `syndrome_hex correction_hex` row per syndrome, with
    overridden (fault-derived) entries marked."""
    lines = [
        f"# kind {table.kind}",
        f"# qubits {table.n}",
        f"# syndromes {table.syndrome_count}",
        f"# overridden {' '.join(hex(s) for s in sorted(table.overridden)) or '-'}",
    ]
    for s, corr in enumerate(table.corrections):
        lines.append(f"{s:0{(len(table.detect_rows) + 3) // 4}x} {corr:x}")
    return "\n".join(lines) + "\n"

