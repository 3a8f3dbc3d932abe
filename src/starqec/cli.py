"""Command-line interface: code inspection, schedule construction and
verification, decoder tables, simulations and fits."""

from __future__ import annotations

import json
import os
import sys
import time
from functools import partial, wraps
from pathlib import Path

import click

from .circuits import NoiseModel, build_ec_circuit
from .codes import CssCode, code_from_complex, distance_upto, get_builtin_code, verify_logical_basis
from .complexes import load_complex
from .decoder import DecoderBuildError, build_tables, format_table
from .engine import Simulator, count_cnot_pairs
from .exact import exact_c_parts
from .faulttol import (
    ScheduleSearchError,
    builtin_schedule,
    find_fault_tolerant_schedule,
    find_interleaved_schedule,
    verify_unique_syndromes,
)
from .gf2 import rank
from .results import (
    FitError,
    PointEstimate,
    ResultRow,
    fit_quadratic,
    m_copy_failure,
    read_results_csv,
    write_lifetime_csv,
    write_results_csv,
)
from .scheduling import CnotSchedule, load_schedule, save_schedule, verify_properness

EXIT_VERIFICATION_FAILURE = 1


def _out_dir() -> Path:
    return Path(os.environ.get("STARQEC_OUTDIR", "."))


def _out_option(help: str, default_in_outdir: bool = False):
    """A file-valued ``--out`` option whose directory must already exist.
    With ``default_in_outdir``, leaving it out means a default file in
    ``$STARQEC_OUTDIR``, which must exist too. Checked when the command line
    is parsed, so a bad path is a usage error before any work starts."""

    def check(_ctx, _param, value):
        if value:
            directory = Path(value).parent
            if not directory.is_dir():
                raise click.BadParameter(f"directory {directory} does not exist")
        elif default_in_outdir and not _out_dir().is_dir():
            raise click.UsageError(f"STARQEC_OUTDIR directory {_out_dir()} does not exist")
        return value

    return click.option("--out", type=click.Path(), default=None, help=help, callback=check)


def _code_options(f):
    f = click.option(
        "--code", "code_name", type=click.Choice(["ssd", "surface17"]), default=None,
        help="Built-in code selector.",
    )(f)
    f = click.option(
        "--complex-file", type=click.Path(exists=False), default=None,
        help="Build the code from a complex definition file instead.",
    )(f)
    return f


def _resolve_code(code_name: str | None, complex_file: str | None) -> CssCode:
    if complex_file is not None:
        path = Path(complex_file)
        if not path.exists():
            raise click.UsageError(f"complex file not found: {path}")
        try:
            return code_from_complex(load_complex(path))
        except ValueError as exc:  # includes ComplexFormatError
            raise click.UsageError(f"bad complex file {path}: {exc}") from None
    if code_name is None:
        raise click.UsageError("specify --code or --complex-file")
    return get_builtin_code(code_name)


def _load_schedule(code: CssCode, schedule_path: str) -> CnotSchedule:
    """A schedule file checked against the code; a bad file is a usage error."""
    try:
        schedule = load_schedule(schedule_path)
        schedule.validate_against(code)
    except ValueError as exc:  # includes ScheduleError
        raise click.UsageError(f"bad schedule file {schedule_path}: {exc}") from None
    return schedule


def _resolve(code_name, complex_file, schedule_path, retries) -> tuple[CssCode, CnotSchedule]:
    """The code, with the schedule file's schedule, the built-in one, or one
    found by search."""
    code = _resolve_code(code_name, complex_file)
    if schedule_path is not None:
        return code, _load_schedule(code, schedule_path)
    if code_name is not None:
        return code, builtin_schedule(code_name)
    return code, find_fault_tolerant_schedule(code, retries=retries).schedule


def _schedule_options(f):
    """The code options, ``--schedule`` and ``--retries``, passed to the
    command as ``source``: a call that ``_resolve``s them when the command
    is ready. ``--retries`` is listed after the command's own options but
    before ``--single-unit`` and ``--out``."""

    @wraps(f)
    def command(code_name, complex_file, schedule_path, retries, **kwargs):
        return f(partial(_resolve, code_name, complex_file, schedule_path, retries), **kwargs)

    click.option("--retries", default=1000, show_default=True)(command)
    params = command.__click_params__  # in reverse order of listing
    params.insert(sum(p.name in ("out", "single_unit") for p in params), params.pop())
    click.option("--schedule", "schedule_path", type=click.Path(exists=True), default=None)(command)
    return _code_options(command)


def _with_decoder(build, *args):
    """``build(*args)``, where ``build`` makes lookup tables; a table that
    cannot or may not be built is a usage error."""
    try:
        return build(*args)
    except DecoderBuildError as exc:
        raise click.UsageError(f"cannot build the decoder: {exc}") from None


@click.group()
def main():
    """Homological CSS codes with fault-tolerant parity-check measurement."""


# --- code ---------------------------------------------------------------


@main.group()
def code():
    """Inspect codes."""


@code.command("info")
@_code_options
@click.option("--distance-max", default=6, show_default=True, help="Distance search cap.")
def code_info(code_name, complex_file, distance_max):
    """Print code parameters, check weights and logical-basis verification."""
    c = _resolve_code(code_name, complex_file)
    try:
        d_z, d_x = distance_upto(c, distance_max)
    except ValueError as exc:  # a cap below 1, or a search too large to run
        raise click.UsageError(f"--distance-max {distance_max}: {exc}") from None
    click.echo(f"code: {c.name}")
    click.echo(f"n: {c.n}")
    click.echo(f"k: {c.k}")
    click.echo(f"x-checks: {len(c.hx.rows)} (rank {rank(c.hx)}) weights {sorted(set(c.x_check_weights()))}")
    click.echo(f"z-checks: {len(c.hz.rows)} (rank {rank(c.hz)}) weights {sorted(set(c.z_check_weights()))}")
    if c.complex is not None:
        cx = c.complex
        click.echo(
            f"complex: V={cx.vertex_count} E={cx.edge_count} F={cx.face_count} "
            f"chi={cx.euler_characteristic()}"
        )
    click.echo(f"d_z: {d_z if d_z is not None else f'> {distance_max}'}")
    click.echo(f"d_x: {d_x if d_x is not None else f'> {distance_max}'}")
    report = verify_logical_basis(c)
    click.echo(f"logical basis: {'ok' if report.all_ok else 'FAIL'}")
    for msg in report.failures:
        click.echo(f"  {msg}")
    if not report.all_ok:
        sys.exit(EXIT_VERIFICATION_FAILURE)


# --- schedule -----------------------------------------------------------


@main.group()
def schedule():
    """Build and verify CNOT schedules."""


@schedule.command("build")
@_code_options
@click.option("--mode", type=click.Choice(["separate", "interleaved"]), default="separate",
              show_default=True)
@click.option("--retries", default=1000, show_default=True)
@_out_option("Schedule file to write.", default_in_outdir=True)
def schedule_build(code_name, complex_file, mode, retries, out):
    """Search for a verified schedule and write it to a file."""
    c = _resolve_code(code_name, complex_file)
    out_path = Path(out) if out else _out_dir() / f"{c.name}-{mode}.sched"
    if mode == "separate":
        try:
            res = find_fault_tolerant_schedule(c, retries=retries)
        except ScheduleSearchError as exc:
            click.echo(f"search failed: {exc}")
            sys.exit(EXIT_VERIFICATION_FAILURE)
        colors = [f"colors: {res.colors_x} X + {res.colors_z} Z"]
    else:
        res = find_interleaved_schedule(c, retries=min(retries, 200))
        if res.schedule is None:
            click.echo(
                f"no passing interleaved schedule found (best coloring: {res.best_colors} "
                f"steps, attempts: {res.attempts}); the sequential schedule remains the "
                "verified option"
            )
            sys.exit(EXIT_VERIFICATION_FAILURE)
        colors = []
    save_schedule(res.schedule, out_path)
    for line in [f"schedule: {out_path}", f"steps: {res.schedule.steps} (T = {res.schedule.steps + 2})",
                 *colors, "properness: ok", "unique syndromes: ok"]:
        click.echo(line)


@schedule.command("verify")
@_code_options
@click.option("--schedule", "schedule_path", type=click.Path(exists=True), required=True)
def schedule_verify(code_name, complex_file, schedule_path):
    """Check validity, properness and syndrome uniqueness of a schedule file."""
    c = _resolve_code(code_name, complex_file)
    sched = _load_schedule(c, schedule_path)
    click.echo(f"validity: ok ({sched.steps} steps, mode {sched.mode})")
    prop = verify_properness(c, sched)
    click.echo(f"properness: {'ok' if prop.ok else 'FAIL'}")
    for xi, zj, qubits in prop.improper_pairs[:10]:
        click.echo(f"  improper pair X{xi}/Z{zj} on qubits {qubits}")
    uniq = verify_unique_syndromes(build_ec_circuit(c, sched, rounds=1))
    click.echo(f"unique syndromes: {'ok' if uniq.ok else 'FAIL'}")
    for kind, collisions in uniq.collisions.items():
        for s, a, b in collisions[:10]:
            click.echo(f"  {kind}: syndrome {s:#x} shared by {a:#x} and {b:#x}")
    if not (prop.ok and uniq.ok):
        sys.exit(EXIT_VERIFICATION_FAILURE)


# --- decoder ------------------------------------------------------------


@main.group()
def decoder():
    """Build and dump lookup tables."""


@decoder.command("build")
@_schedule_options
@click.option("--out", type=click.Path(), default=None, help="Output directory.")
def decoder_build(source, out):
    """Build the X- and Z-error lookup tables and write their dumps."""
    c, sched = source()
    tables = _with_decoder(build_tables, build_ec_circuit(c, sched, rounds=1))
    out_dir = Path(out) if out else _out_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    for kind, table in tables.items():
        path = out_dir / f"{c.name}-{kind.lower()}.table"
        path.write_text(format_table(table))
        click.echo(f"{kind}-error table: {path} ({table.syndrome_count} syndromes, "
                   f"{len(table.overridden)} fault-derived overrides)")


@decoder.command("dump")
@_schedule_options
@click.option("--kind", type=click.Choice(["X", "Z"]), default="Z", show_default=True)
@_out_option("Table file to write (stdout by default).")
def decoder_dump(source, kind, out):
    """Write one lookup table as text (stdout by default)."""
    c, sched = source()
    tables = _with_decoder(build_tables, build_ec_circuit(c, sched, rounds=1))
    text = format_table(tables[kind])
    if out:
        Path(out).write_text(text)
        click.echo(f"wrote {out}")
    else:
        click.echo(text, nl=False)


# --- sim ----------------------------------------------------------------


def _simulator(source) -> tuple[CssCode, Simulator]:
    c, sched = source()
    return c, _with_decoder(Simulator, c, sched)


@main.group()
def sim():
    """Run simulations and fault-tolerance verification."""


@sim.command("verify")
@_schedule_options
def sim_verify(source):
    """Exhaustive fault-tolerance verification of the EC unit and exRec."""
    c, simulator = _simulator(source)
    report = simulator.verify()
    click.echo(f"properness: {'ok' if report.properness_ok else 'FAIL'}")
    click.echo(f"unique syndromes: {'ok' if report.uniqueness_ok else 'FAIL'}")
    c1 = report.condition1
    click.echo(
        f"condition 1: {'ok' if c1.ok else 'FAIL'} "
        f"({c1.input_cases} input cases, {c1.fault_cases} fault cases, "
        f"{c1.correctability_cases} correctability cases)"
    )
    for msg in c1.violations[:10]:
        click.echo(f"  {msg}")
    sweep = report.exrec_sweep
    click.echo(f"exrec single-fault sweep: {'ok' if sweep.ok else 'FAIL'} ({sweep.cases} cases)")
    for msg in sweep.violations[:10]:
        click.echo(f"  {msg}")
    circuit = simulator.circuit
    click.echo(f"cnots per EC unit: {circuit.cnot_count()} (pairs: {count_cnot_pairs(circuit)})")
    if not report.ok:
        sys.exit(EXIT_VERIFICATION_FAILURE)


@sim.command("exact")
@_schedule_options
def sim_exact(source):
    """Exact leading coefficient c of the exRec failure rate, p_L = c p^2 + O(p^3),
    from every pair of faults, with its split by error type; prints JSON."""
    c, simulator = _simulator(source)
    t0 = time.perf_counter()
    parts = exact_c_parts(simulator)
    wall_s = time.perf_counter() - t0
    distinct = len(simulator.distinct_signatures()[0])
    coeff = parts.c
    summary = {
        "code": c.name,
        "c": coeff,
        # c = c_x + c_z - c_xz: pairs failing on X, on Z, and on both
        "c_x": parts.c_x,
        "c_z": parts.c_z,
        "c_xz": parts.c_xz,
        "keys": parts.keys,
        "pstar": 1.0 / (10.0 * coeff) if coeff > 0 else None,
        "distinct_signatures": distinct,
        # unordered pairs within one unit, ordered pairs across the two units
        "pairs": distinct * (distinct + 1) // 2 + distinct * distinct,
        "wall_s": wall_s,
    }
    click.echo(json.dumps(summary, indent=2, sort_keys=True))


def _p_option(f):
    return click.option(
        "--p", "ps", type=float, multiple=True, required=True,
        help="Physical error rate (repeatable).",
    )(f)


def _check_ps(ps) -> None:
    for p in ps:
        if not 0.0 < p < 1.0:
            raise click.UsageError(f"--p must be in (0, 1), got {p}")


@sim.command("exrec")
@_schedule_options
@_p_option
@click.option("--trials", default=100_000, show_default=True)
@click.option("--seed", default=12345, show_default=True)
@click.option("--threads", default=None, type=int, help="Worker processes (default: all cores).")
@click.option("--single-unit", is_flag=True, help="Simulate one EC unit instead of the exRec.")
@_out_option("Results CSV path.", default_in_outdir=True)
def sim_exrec(source, ps, trials, seed, threads, single_unit, out):
    """Estimate the logical failure rate of the exRec (or a single EC unit)."""
    _check_ps(ps)
    if trials < 1:
        raise click.UsageError("--trials must be >= 1")
    if threads is not None and threads < 1:
        raise click.UsageError("--threads must be >= 1")
    c, simulator = _simulator(source)
    mode = "single" if single_unit else "exrec"
    points = simulator.estimate_pl(list(ps), trials, seed, mode=mode, threads=threads)
    rows = []
    for pt in points:
        lo, hi = pt.ci
        rows.append(ResultRow(c.name, mode, pt.p, pt.trials, pt.failures, pt.p_l, lo, hi, seed))
        click.echo(
            f"p={pt.p:g} trials={pt.trials} failures={pt.failures} "
            f"p_l={pt.p_l:.6g} ci=[{lo:.3g}, {hi:.3g}]"
        )
    out_path = Path(out) if out else _out_dir() / f"{c.name}-{mode}.csv"
    write_results_csv(out_path, rows)
    click.echo(f"results: {out_path}")


@sim.command("lifetime")
@_schedule_options
@_p_option
@click.option("--trials", default=1000, show_default=True, help="Trajectories.")
@click.option("--rounds-max", default=30000, show_default=True)
@click.option("--seed", default=12345, show_default=True)
@_out_option("Results CSV path.", default_in_outdir=True)
def sim_lifetime(source, ps, trials, rounds_max, seed, out):
    """Mean EC rounds an encoded memory survives, carrying residuals forward."""
    _check_ps(ps)
    if trials < 1:
        raise click.UsageError("--trials must be >= 1")
    if rounds_max < 3:
        raise click.UsageError("--rounds-max must be >= 3")
    c, simulator = _simulator(source)
    summaries = []
    for p in ps:
        summary = simulator.estimate_lifetime(NoiseModel(p), trials, seed, rounds_max)
        click.echo(
            f"p={p:g} trajectories={summary.trajectories} mean_rounds={summary.mean_rounds:.1f} "
            f"failed={summary.failures} censored={summary.censored}"
        )
        summaries.append((p, summary))
    out_path = Path(out) if out else _out_dir() / f"{c.name}-lifetime.csv"
    write_lifetime_csv(out_path, c.name, seed, summaries)
    click.echo(f"results: {out_path}")


# --- fit ----------------------------------------------------------------


def _read_results(path: str) -> list[ResultRow]:
    try:
        return read_results_csv(path)
    except ValueError as exc:
        raise click.UsageError(f"bad results file {path}: {exc}") from None


def _fit(rows: list[ResultRow], min_failures: int, label: str):
    """``fit_quadratic`` of the rows; a failed fit prints why and exits 1."""
    try:
        return fit_quadratic(
            [PointEstimate(r.p, r.trials, r.failures) for r in rows], min_failures=min_failures
        )
    except FitError as exc:
        click.echo(f"{label} failed: {exc}")
        sys.exit(EXIT_VERIFICATION_FAILURE)


@main.command("fit")
@click.option("--results", type=click.Path(exists=True), required=True)
@click.option("--compare", type=click.Path(exists=True), default=None,
              help="Second results CSV for an m-copy comparison.")
@click.option("--m-copies", default=8, show_default=True)
@click.option("--min-failures", default=20, show_default=True)
@_out_option("Write the fit summary JSON.")
def fit_cmd(results, compare, m_copies, min_failures, out):
    """Fit p_L = c p^2, report the pseudo-threshold, optionally compare m copies."""
    if compare and m_copies < 1:
        raise click.UsageError(f"--m-copies must be >= 1, got {m_copies}")
    rows = _read_results(results)
    other_rows = _read_results(compare) if compare else None
    fit = _fit(rows, min_failures, "fit")
    other = _fit(other_rows, min_failures, "comparison fit") if compare else None
    summary = fit.as_dict()
    summary["pstar_vs_p"] = 1.0 / fit.c  # crossing with f(p) = p
    click.echo(json.dumps(summary, indent=2, sort_keys=True))
    if out:
        Path(out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    if compare:
        click.echo(f"comparison fit: c={other.c:.6g} pstar={other.pstar:.6g}")
        grid = sorted({r.p for r in rows} | {r.p for r in other_rows})
        all_below = True
        for p in grid:
            copies = m_copy_failure(min(fit.c * p * p, 1.0), m_copies)
            single = min(other.c * p * p, 1.0)
            mark = "<" if copies < single else ">="
            if copies >= single:
                all_below = False
            click.echo(f"p={p:g}: {m_copies}-copy {copies:.6g} {mark} {single:.6g}")
        click.echo(
            f"{m_copies} copies of the fitted code "
            + ("stay below" if all_below else "do NOT stay below")
            + " the comparison code across the grid"
        )


if __name__ == "__main__":
    main()
