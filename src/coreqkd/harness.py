"""Monte Carlo experiment runner, configuration format and reporting.

Experiments are described by a flat, line-oriented ``key = value`` file with
section headers (INI syntax, parsed with the standard library)::

    [experiment]
    name = noise-sweep
    trials = 4                  ; sessions per sweep point
    seed = 91                   ; master seed, >= 0
    format = csv                ; csv | jsonl
    out = report.csv            ; optional output path

    [session]
    mode = keyed                ; keyed | bootstrap
    n_blocks = 500
    control_key = 00011011      ; bit string, 2 bits per op index
    group_size = 1
    check_fraction = 0.5
    error_threshold = 0.1
    noise = 0.0
    requested_key_bits =        ; bootstrap sessions only, even; empty = all sifted bits

    [eve]                       ; optional; every other key belongs to one kind
    kind = bell_probe           ; none | guess_core | known_key | bell_probe
    a = 1 0 0                   ; bell_probe: directions (normalised on parse)
    b = 0 0 1
    budget = 1                  ; duos probed per block, 1..4
    ; guess_core: weights = 0.25 0.25 0.25 0.25
    ; known_key:  key = 0001    Eve's bit string, kept when key_lengths redraws
    ;                           the session key; empty = each session's own key

    [sweep]                     ; optional; every key is an axis, grid = product
    noise = 0.0 0.05 0.1
    eve = none guess_core
    key_lengths = 1 2 4         ; N_k values; keys drawn per trial
    n_blocks = 1000 10000

    [rearrangement]             ; optional custom permutation set
    perms = 0123 1230 2301 3012

    [device]                    ; optional delay-loop geometry
    loop_delay = 4
    max_circuits = 2

Every key is declared once, in ``_KEYS``; an empty value means its default.
An unknown section or key, an ``[eve]`` key of another kind, a value that
does not convert and a sweep cell ``trial_config`` cannot build each fail to
load with a ``ConfigError`` naming them. With ``[device]`` or ``[rearrangement]``,
every op must be realisable on the device (default geometry if no ``[device]``).

Reports are CSV (header plus one line per sweep point; fields holding a
comma, quote or line break are quoted) or JSON lines. Both parse back with
``parse_report`` to equal rows, and CSV re-emits byte for byte.

Per-trial seeds are derived from the master seed with numpy's splittable
``SeedSequence`` keyed by (sweep point index, trial index), so serial and
parallel execution see identical statistics.
"""

from __future__ import annotations

import configparser
import csv
import io
import itertools
import json
import math
from dataclasses import dataclass, fields, replace
from typing import Iterable, Iterator

import numpy as np

from .adversary import EVE_KINDS, EveStrategy
from .protocol import (
    SessionConfig,
    SessionTranscript,
    run_bootstrap_session,
    run_keyed_session,
)
from .quantum import Direction
from .rearrange import (
    ControlKey,
    CoreOpSet,
    DeviceModel,
    GroupConfig,
    UnrealizableError,
    perm_to_schedule,
)


class ConfigError(ValueError):
    """A configuration file could not be parsed or validated."""


@dataclass(frozen=True)
class SweepAxes:
    """Optional sweep axes; the grid is their cartesian product."""

    noise: tuple[float, ...] | None = None
    eve: tuple[str, ...] | None = None
    key_lengths: tuple[int, ...] | None = None
    n_blocks: tuple[int, ...] | None = None


@dataclass(frozen=True)
class ExperimentSpec:
    """A named experiment: session template, sweep axes, trials and output."""

    name: str
    session: SessionConfig
    trials: int = 1
    seed: int = 0
    sweep: SweepAxes = SweepAxes()
    out: str | None = None
    fmt: str = "csv"

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.fmt not in ("csv", "jsonl"):
            raise ConfigError("format must be csv or jsonl")
        # A longer field emits, but the csv module cannot read it back.
        if len(self.name) > csv.field_size_limit():
            raise ConfigError(f"name must be at most {csv.field_size_limit()} characters")


@dataclass(frozen=True)
class ReportRow:
    """Aggregated statistics of one sweep point."""

    experiment: str
    noise: float
    eve: str
    n_k: int
    n_blocks: int
    trials: int
    mean_error_rate: float | None
    error_rate_se: float | None
    wrong_guess_error_rate: float | None
    wrong_guess_error_se: float | None
    sift_rate: float | None
    sift_rate_se: float | None
    key_bits: float | None
    key_bits_se: float | None
    eve_accuracy: float | None
    eve_accuracy_se: float | None
    probe_mean: float | None
    probe_se: float | None


REPORT_COLUMNS = tuple(f.name for f in fields(ReportRow))
# The six columns that name a sweep cell are followed by (mean, standard
# error) pairs, one per statistic of ``_trial_stats``.
_STAT_COLUMNS = tuple(zip(REPORT_COLUMNS[6::2], REPORT_COLUMNS[7::2]))
# Each column's type as ``ReportRow`` declares it: "str", "int", "float" or "float | None".
_COLUMN_TYPES = {f.name: f.type for f in fields(ReportRow)}


# ---------------------------------------------------------------------------
# Seeding
# ---------------------------------------------------------------------------

def trial_seed(master_seed: int, point_index: int, trial_index: int) -> int:
    """64-bit session seed for one (sweep point, trial) cell.

    Children of the master SeedSequence are keyed by cell coordinates, so
    any execution order reproduces the same seeds.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=(point_index, trial_index))
    return int(ss.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# Experiment execution
# ---------------------------------------------------------------------------

class CellError(RuntimeError):
    """A session of one sweep cell failed; the message names the cell and trial."""


def _eve(kind: str, params: dict) -> EveStrategy | None:
    """Eve of ``kind`` from her ``[eve]`` keys, None for kind none; a known_key Eve given no key holds the session's."""
    kinds = {"none": (), **EVE_KINDS}
    if kind not in kinds:
        raise ValueError(f"kind {kind!r} is not one of {' '.join(kinds)}")
    for key in params:
        if key not in kinds[kind]:
            raise ValueError(f"{key}: not a key of kind = {kind}")
    if kind == "none":
        return None
    if kind == "guess_core":
        return EveStrategy.guess_core(**params)
    if kind == "known_key":
        return EveStrategy.known_key(**params)
    return EveStrategy.bell_probe(**params)


def _cell_name(point_index: int, point: dict) -> str:
    return f"[sweep] cell {point_index} ({', '.join(f'{k}={v}' for k, v in point.items())})"


def _grid(spec: ExperimentSpec) -> list[dict]:
    base_eve = spec.session.eve.kind if spec.session.eve is not None else "none"
    noises = spec.sweep.noise or (spec.session.noise,)
    eves = spec.sweep.eve or (base_eve,)
    lengths = spec.sweep.key_lengths or (spec.session.control_key.n_k,)
    blocks = spec.sweep.n_blocks or (spec.session.n_blocks,)
    return [
        {"noise": noise, "eve": eve, "n_k": n_k, "n_blocks": n_blocks}
        for noise, eve, n_k, n_blocks in itertools.product(noises, eves, lengths, blocks)
    ]


def _trial_stats(transcript: SessionTranscript) -> dict:
    verdict = transcript.verdict
    probe = transcript.eve_log.probe_mean if transcript.eve_log else None
    key_bits = transcript.raw_key_length if transcript.accepted else 0
    values = (
        verdict.measured_error_rate if verdict else None,
        transcript.wrong_guess_error_rate(),
        transcript.sift_rate if transcript.mode == "bootstrap" else None,
        float(key_bits),
        transcript.eve_bit_accuracy(),
        probe,
    )
    return {mean: v for (mean, _), v in zip(_STAT_COLUMNS, values, strict=True)}


def _mean_se(values: list[float | None]) -> tuple[float | None, float | None]:
    got = [v for v in values if v is not None]
    if not got:
        return None, None
    mean = float(np.mean(got))
    if len(got) < 2:
        return mean, 0.0
    return mean, float(np.std(got, ddof=1) / math.sqrt(len(got)))


def trial_config(spec: ExperimentSpec, point: dict, point_index: int, trial_index: int) -> SessionConfig:
    """The session of one trial of one sweep cell; ``run_trial`` sets its seed.

    Deriving the seed here would import ``numpy.random`` while a spec loads.
    """
    session = spec.session
    control_key = session.control_key
    if point["n_k"] != control_key.n_k:
        key_rng = np.random.default_rng(trial_seed(spec.seed, point_index, 2**20 + trial_index))
        control_key = ControlKey.random(point["n_k"], key_rng)
    eve = session.eve
    if eve is None or eve.kind != point["eve"]:
        eve = _eve(point["eve"], {})
    return replace(
        session,
        noise=point["noise"],
        n_blocks=point["n_blocks"],
        control_key=control_key,
        eve=eve,
    )


def run_trial(spec: ExperimentSpec, point: dict, point_index: int, trial_index: int) -> SessionTranscript:
    """Run one session of one sweep cell with its derived seed."""
    cfg = trial_config(spec, point, point_index, trial_index)
    cfg = replace(cfg, seed=trial_seed(spec.seed, point_index, trial_index))
    if cfg.mode == "bootstrap":
        _, transcript = run_bootstrap_session(cfg)
        return transcript
    return run_keyed_session(cfg)


def iter_experiment(spec: ExperimentSpec) -> Iterator[ReportRow]:
    """Each sweep cell's row in grid order; a failing session raises ``CellError``."""
    for point_index, point in enumerate(_grid(spec)):
        per_trial: dict[str, list] = {mean: [] for mean, _ in _STAT_COLUMNS}
        for trial_index in range(spec.trials):
            try:
                transcript = run_trial(spec, point, point_index, trial_index)
            except RuntimeError as exc:
                raise CellError(f"{_cell_name(point_index, point)}, trial {trial_index}: {exc}") from exc
            for k, v in _trial_stats(transcript).items():
                per_trial[k].append(v)
        stats = {}
        for mean, se in _STAT_COLUMNS:
            stats[mean], stats[se] = _mean_se(per_trial[mean])
        yield ReportRow(
            experiment=spec.name,
            noise=float(point["noise"]),
            eve=point["eve"],
            n_k=int(point["n_k"]),
            n_blocks=int(point["n_blocks"]),
            trials=spec.trials,
            **stats,
        )


def run_experiment(spec: ExperimentSpec) -> list[ReportRow]:
    """Execute the full sweep grid; deterministic given (spec, seed)."""
    return list(iter_experiment(spec))


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_line(cells: Iterable[str]) -> str:
    """One CSV record ending in a bare newline."""
    out = io.StringIO()
    # A "\r\n" terminator makes the writer quote a field holding either character.
    csv.writer(out, lineterminator="\r\n").writerow(cells)
    return out.getvalue()[:-2] + "\n"


def emit_report(rows: Iterable[ReportRow], fmt: str = "csv") -> str:
    """Render rows as CSV (header + one line per row) or JSON lines.

    CSV fields holding a comma, a quote or a line break are quoted, so any
    row parses back with ``parse_report``.
    """
    if fmt == "csv":
        lines = [_csv_line(REPORT_COLUMNS)]
        for row in rows:
            lines.append(_csv_line([_cell(getattr(row, c)) for c in REPORT_COLUMNS]))
        return "".join(lines)
    if fmt == "jsonl":
        out = io.StringIO()
        for row in rows:
            out.write(json.dumps({c: getattr(row, c) for c in REPORT_COLUMNS}))
            out.write("\n")
        return out.getvalue()
    raise ConfigError(f"unknown report format {fmt!r}")


def parse_report(text: str, fmt: str = "csv") -> list[ReportRow]:
    """Parse a report back into rows; inverse of ``emit_report``.

    A malformed report raises a ``ConfigError`` naming its line and, where
    one cell is at fault, the column.
    """
    lines: list[tuple[int, dict]] = []
    if fmt == "csv":
        reader = csv.reader(io.StringIO(text, newline=""))
        try:
            records = [(reader.line_num, r) for r in reader if r]
        except csv.Error as exc:
            raise ConfigError(f"report line {reader.line_num}: bad CSV: {exc}") from exc
        if not records or tuple(records[0][1]) != REPORT_COLUMNS:
            raise ConfigError("missing or unexpected CSV header")
        for line, cells in records[1:]:
            if len(cells) != len(REPORT_COLUMNS):
                raise ConfigError(f"report line {line}: {len(cells)} cells, expected {len(REPORT_COLUMNS)}")
            lines.append((line, dict(zip(REPORT_COLUMNS, cells))))
    elif fmt == "jsonl":
        for line, ln in enumerate(text.splitlines(), 1):
            if ln.strip():
                try:
                    cells = json.loads(ln)
                except ValueError as exc:
                    raise ConfigError(f"report line {line}: bad JSON: {exc}") from exc
                if not isinstance(cells, dict):
                    raise ConfigError(f"report line {line}: not a JSON object")
                lines.append((line, cells))
    else:
        raise ConfigError(f"unknown report format {fmt!r}")
    rows = []
    for line, cells in lines:
        for column in (*cells, *REPORT_COLUMNS):
            if (column in cells) != (column in _COLUMN_TYPES):
                problem = "unknown" if column in cells else "missing"
                raise ConfigError(f"report line {line}: {column}: {problem} column")
        values = {}
        for column in REPORT_COLUMNS:
            try:
                values[column] = _cell_value(column, cells[column], fmt == "csv")
            except (ValueError, OverflowError) as exc:
                raise ConfigError(f"report line {line}: {column}: {exc}") from exc
        rows.append(ReportRow(**values))
    return rows


def _cell_value(column: str, cell, from_csv: bool):
    """``cell`` as a value of ``column``'s type: a csv cell is text (empty for None), a jsonl one JSON."""
    kind = _COLUMN_TYPES[column]
    if kind == "str":
        if isinstance(cell, str):
            return cell
    elif from_csv:
        if cell == "" and kind == "float | None":
            return None
        return int(cell) if kind == "int" else float(cell)
    elif cell is None and kind == "float | None":
        return None
    elif type(cell) is int or (type(cell) is float and kind != "int"):
        return cell if kind == "int" else float(cell)
    raise ValueError(f"expected {kind}, got {cell!r}")


def write_report(rows: Iterable[ReportRow], path: str, fmt: str = "csv") -> None:
    """Write a report to disk; I/O failures carry the path in the message."""
    text = emit_report(rows, fmt)
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise OSError(f"cannot write report to {path!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Configuration parsing
# ---------------------------------------------------------------------------

def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.split())


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in raw.split())


def _direction(raw: str) -> Direction:
    x, y, z = _floats(raw)
    return Direction.normalized(x, y, z)


# Every key of the grammar: (section, key) -> (keyword it fills, converter).
_KEYS = {
    ("experiment", "name"): ("name", str),
    ("experiment", "trials"): ("trials", int),
    ("experiment", "seed"): ("seed", int),
    ("experiment", "format"): ("fmt", str),
    ("experiment", "out"): ("out", str),
    ("session", "mode"): ("mode", str),
    ("session", "n_blocks"): ("n_blocks", int),
    ("session", "control_key"): ("control_key", ControlKey.from_bits),
    ("session", "group_size"): ("group", lambda raw: GroupConfig(int(raw))),
    ("session", "check_fraction"): ("check_fraction", float),
    ("session", "error_threshold"): ("error_threshold", float),
    ("session", "noise"): ("noise", float),
    ("session", "requested_key_bits"): ("requested_key_bits", int),
    ("eve", "kind"): ("kind", str),
    ("eve", "weights"): ("weights", _floats),
    ("eve", "key"): ("key", ControlKey.from_bits),
    ("eve", "a"): ("a", _direction),
    ("eve", "b"): ("b", _direction),
    ("eve", "budget"): ("budget", int),
    ("sweep", "noise"): ("noise", _floats),
    ("sweep", "eve"): ("eve", lambda raw: tuple(raw.split())),
    ("sweep", "key_lengths"): ("key_lengths", _ints),
    ("sweep", "n_blocks"): ("n_blocks", _ints),
    ("rearrangement", "perms"): ("op_set", lambda raw: CoreOpSet([list(map(int, t)) for t in raw.split()])),
    ("device", "loop_delay"): ("loop_delay", int),
    ("device", "max_circuits"): ("max_circuits", int),
}


def parse_experiment(path: str) -> ExperimentSpec:
    """Load an experiment specification file (grammar in the module docstring)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path!r}: {exc}") from exc
    return parse_experiment_string(text, name_hint=path)


def parse_experiment_string(text: str, name_hint: str = "<string>") -> ExperimentSpec:
    """Load an experiment specification from text; errors start with ``name_hint``."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text, source=name_hint)
    except configparser.Error as exc:
        raise ConfigError(f"{name_hint}: {exc}") from exc
    # Each section's converted values by keyword; an empty value is left out.
    # Keys of the default section would apply to every section, so they are unknown.
    got: dict[str, dict] = {}
    for section in (parser.default_section, *parser.sections()):
        got[section] = {}
        for key, raw in parser[section].items():
            if (section, key) not in _KEYS:
                raise ConfigError(f"{name_hint}: [{section}] {key}: unknown key")
            if raw:
                keyword, convert = _KEYS[section, key]
                try:
                    got[section][keyword] = convert(raw)
                except ValueError as exc:
                    raise ConfigError(f"{name_hint}: [{section}] {key}: {exc}") from exc
    if "session" not in got:
        raise ConfigError(f"{name_hint}: missing [session] section")
    try:
        session = SessionConfig(**{
            "n_blocks": 100,
            "control_key": ControlKey.from_bits("0001"),
            **got["session"],
        })
    except ValueError as exc:
        raise ConfigError(f"{name_hint}: [session] {exc}") from exc
    try:
        # Apart from [session], so that an op-set error names [rearrangement] perms.
        session = replace(session, **got.get("rearrangement", {}))
    except ValueError as exc:
        raise ConfigError(f"{name_hint}: [rearrangement] perms: {exc}") from exc
    params = dict(got.get("eve", {}))
    try:
        eve = _eve(params.pop("kind", "none"), params)
    except ValueError as exc:
        raise ConfigError(f"{name_hint}: [eve] {exc}") from exc
    session = replace(session, eve=eve)

    if "device" in got or "rearrangement" in got:
        section = "device" if "device" in got else "rearrangement"
        try:
            device = DeviceModel(**got.get("device", {}))
            for op in session.op_set:
                perm_to_schedule(op.perm, device)
        except (ValueError, UnrealizableError) as exc:
            raise ConfigError(f"{name_hint}: [{section}] {exc}") from exc

    try:
        spec = ExperimentSpec(
            **{"name": "experiment", **got.get("experiment", {})},
            session=session,
            sweep=SweepAxes(**got.get("sweep", {})),
        )
    except ValueError as exc:
        raise ConfigError(f"{name_hint}: [experiment] {exc}") from exc
    for point_index, point in enumerate(_grid(spec)):
        try:
            trial_config(spec, point, point_index, 0)
        except ValueError as exc:
            raise ConfigError(f"{name_hint}: {_cell_name(point_index, point)}: {exc}") from exc
    return spec


# ---------------------------------------------------------------------------
# Built-in experiments
# ---------------------------------------------------------------------------

def paper_table(seed: int = 20130704) -> ExperimentSpec:
    """The headline security table: clean channel, guessing interceptor, probe.

    Three rows reproduce the protocol's signature numbers: a zero error rate
    on the clean channel, the 56.25% error rate induced by an interceptor
    that guesses the rearrangement, and a vanishing mean for the correlation
    probe.
    """
    session = SessionConfig(n_blocks=2500, control_key=ControlKey.from_indices([0, 1, 2, 3]))
    return ExperimentSpec(
        name="paper-table",
        session=session,
        trials=2,
        seed=seed,
        sweep=SweepAxes(eve=("none", "guess_core", "bell_probe")),
    )


BUILTIN_EXPERIMENTS = {"paper-table": paper_table}
