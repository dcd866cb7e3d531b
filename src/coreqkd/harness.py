"""Monte Carlo experiment runner, configuration format and reporting.

Experiments are described by a flat, line-oriented ``key = value`` file with
section headers (INI syntax, parsed with the standard library)::

    [experiment]
    name = noise-sweep
    trials = 4                  ; sessions per sweep point
    seed = 91                   ; master 64-bit seed
    format = csv                ; csv | jsonl
    out = report.csv            ; optional output path

    [session]
    mode = keyed                ; keyed | bootstrap
    n_blocks = 500
    block_size = 4
    control_key = 00011011      ; bit string, 2 bits per op index
    group_size = 1
    check_fraction = 0.5
    error_threshold = 0.1
    noise = 0.0
    requested_key_bits =        ; bootstrap only, optional

    [eve]                       ; optional, default none
    kind = guess_core           ; none | guess_core | known_key | bell_probe
    weights = 0.25 0.25 0.25 0.25
    key = 0001                  ; known_key: Eve's bit string; empty = the session
                                ; key, still hers when key_lengths redraws it
    a = 1 0 0                   ; bell_probe directions (normalised on parse)
    b = 0 0 1
    budget = 1

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

When ``[device]`` or ``[rearrangement]`` is present, every permutation of
the op set must be realisable on the device (the default geometry if no
``[device]`` is given): loading fails with a ``ConfigError`` naming the
section otherwise.

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
import json
import math
from dataclasses import dataclass, fields, replace
from typing import Iterable

import numpy as np

from .adversary import EveStrategy
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
        if self.fmt not in ("csv", "jsonl"):
            raise ConfigError("format must be csv or jsonl")


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
_INT_COLUMNS = {f.name for f in fields(ReportRow) if f.type == "int"}
_STR_COLUMNS = {f.name for f in fields(ReportRow) if f.type == "str"}


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

def _eve_for_kind(kind: str, template: EveStrategy | None, session: SessionConfig) -> EveStrategy | None:
    if kind == "none":
        return None
    if template is not None and template.kind == kind:
        return template
    if kind == "guess_core":
        return EveStrategy.guess_core()
    if kind == "known_key":
        return EveStrategy.known_key(session.control_key, session.group)
    if kind == "bell_probe":
        return EveStrategy.bell_probe(Direction(1, 0, 0), Direction(0, 0, 1))
    raise ConfigError(f"unknown eve kind {kind!r}")


def _grid(spec: ExperimentSpec) -> list[dict]:
    base_eve = spec.session.eve.kind if spec.session.eve is not None else "none"
    noises = spec.sweep.noise or (spec.session.noise,)
    eves = spec.sweep.eve or (base_eve,)
    lengths = spec.sweep.key_lengths or (spec.session.control_key.n_k,)
    blocks = spec.sweep.n_blocks or (spec.session.n_blocks,)
    points = []
    for noise in noises:
        for eve in eves:
            for n_k in lengths:
                for n_blocks in blocks:
                    points.append(
                        {"noise": noise, "eve": eve, "n_k": n_k, "n_blocks": n_blocks}
                    )
    return points


def _trial_stats(transcript: SessionTranscript) -> dict:
    verdict = transcript.verdict
    probe = transcript.eve_log.probe_mean if transcript.eve_log else None
    key_bits = len(transcript.raw_key()) if transcript.accepted else 0
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


def run_trial(spec: ExperimentSpec, point: dict, point_index: int, trial_index: int) -> SessionTranscript:
    """Run one session of one sweep cell with its derived seed."""
    seed = trial_seed(spec.seed, point_index, trial_index)
    session = spec.session
    control_key = session.control_key
    if point["n_k"] != control_key.n_k:
        key_rng = np.random.default_rng(trial_seed(spec.seed, point_index, 2**20 + trial_index))
        control_key = ControlKey.random(point["n_k"], key_rng)
    template = session.eve
    if template is not None and template.kind == "known_key" and template.key == session.control_key:
        # Eve holds the session's key, so she holds the key drawn for this trial.
        template = replace(template, key=control_key)
    cfg = replace(
        session,
        seed=seed,
        noise=point["noise"],
        n_blocks=point["n_blocks"],
        control_key=control_key,
        eve=_eve_for_kind(point["eve"], template, replace(session, control_key=control_key)),
    )
    if cfg.mode == "bootstrap":
        _, transcript = run_bootstrap_session(cfg)
        return transcript
    return run_keyed_session(cfg)


def run_experiment(spec: ExperimentSpec) -> list[ReportRow]:
    """Execute the full sweep grid; deterministic given (spec, seed)."""
    rows = []
    for point_index, point in enumerate(_grid(spec)):
        per_trial: dict[str, list] = {mean: [] for mean, _ in _STAT_COLUMNS}
        for trial_index in range(spec.trials):
            transcript = run_trial(spec, point, point_index, trial_index)
            for k, v in _trial_stats(transcript).items():
                per_trial[k].append(v)
        stats = {}
        for mean, se in _STAT_COLUMNS:
            stats[mean], stats[se] = _mean_se(per_trial[mean])
        rows.append(
            ReportRow(
                experiment=spec.name,
                noise=float(point["noise"]),
                eve=point["eve"],
                n_k=int(point["n_k"]),
                n_blocks=int(point["n_blocks"]),
                trials=spec.trials,
                **stats,
            )
        )
    return rows


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
    """Parse a report back into rows; inverse of ``emit_report``."""
    rows = []
    if fmt == "csv":
        try:
            records = [r for r in csv.reader(io.StringIO(text, newline="")) if r]
        except csv.Error as exc:
            raise ConfigError(f"bad CSV report: {exc}") from exc
        if not records or tuple(records[0]) != REPORT_COLUMNS:
            raise ConfigError("missing or unexpected CSV header")
        for cells in records[1:]:
            if len(cells) != len(REPORT_COLUMNS):
                raise ConfigError(f"bad CSV row: {cells!r}")
            rows.append(ReportRow(**{
                c: _parse_cell(c, cell) for c, cell in zip(REPORT_COLUMNS, cells)
            }))
        return rows
    if fmt == "jsonl":
        for ln in text.splitlines():
            if ln.strip():
                rows.append(ReportRow(**json.loads(ln)))
        return rows
    raise ConfigError(f"unknown report format {fmt!r}")


def _parse_cell(column: str, cell: str):
    if column in _STR_COLUMNS:
        return cell
    if cell == "":
        return None
    if column in _INT_COLUMNS:
        return int(cell)
    return float(cell)


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


def _parse_eve(section, key_fallback: ControlKey, group: GroupConfig) -> EveStrategy | None:
    kind = section.get("kind", "none").strip()
    if kind == "none":
        return None
    if kind == "guess_core":
        weights = section.get("weights", "").strip()
        return EveStrategy.guess_core(_floats(weights) if weights else None)
    if kind == "known_key":
        raw = section.get("key", "").strip()
        key = ControlKey.from_bits(raw) if raw else key_fallback
        return EveStrategy.known_key(key, group)
    if kind == "bell_probe":
        return EveStrategy.bell_probe(
            _direction(section.get("a", "1 0 0")),
            _direction(section.get("b", "0 0 1")),
            int(section.get("budget", "1")),
        )
    raise ConfigError(f"[eve] kind = {kind!r} is not a known strategy")


def parse_experiment(path: str) -> ExperimentSpec:
    """Load an experiment specification file (grammar in the module docstring)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle, source=path)
    except OSError as exc:
        raise ConfigError(f"cannot read {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return _spec_from_parser(parser, source=path)


def parse_experiment_string(text: str, name_hint: str = "<string>") -> ExperimentSpec:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text, source=name_hint)
    except configparser.Error as exc:
        raise ConfigError(f"{name_hint}: {exc}") from exc
    return _spec_from_parser(parser, source=name_hint)


def _spec_from_parser(parser: configparser.ConfigParser, source: str) -> ExperimentSpec:
    def fail(section: str, key: str, exc: Exception) -> ConfigError:
        return ConfigError(f"{source}: [{section}] {key}: {exc}")

    if not parser.has_section("session"):
        raise ConfigError(f"{source}: missing [session] section")
    ses = parser["session"]
    exp = parser["experiment"] if parser.has_section("experiment") else {}

    try:
        group = GroupConfig(int(ses.get("group_size", "1")))
    except ValueError as exc:
        raise fail("session", "group_size", exc)
    try:
        control_key = ControlKey.from_bits(ses.get("control_key", "0001"))
    except ValueError as exc:
        raise fail("session", "control_key", exc)

    op_set = CoreOpSet.cyclic(int(ses.get("block_size", "4")))
    if parser.has_section("rearrangement"):
        raw = parser["rearrangement"].get("perms", "").strip()
        if raw:
            try:
                op_set = CoreOpSet([[int(c) for c in tok] for tok in raw.split()])
            except ValueError as exc:
                raise fail("rearrangement", "perms", exc)

    eve = None
    if parser.has_section("eve"):
        try:
            eve = _parse_eve(parser["eve"], control_key, group)
        except ValueError as exc:
            raise fail("eve", "kind", exc)

    requested = ses.get("requested_key_bits", "").strip()
    try:
        session = SessionConfig(
            n_blocks=int(ses.get("n_blocks", "100")),
            control_key=control_key,
            block_size=int(ses.get("block_size", "4")),
            group=group,
            check_fraction=float(ses.get("check_fraction", "0.5")),
            error_threshold=float(ses.get("error_threshold", "0.1")),
            mode=ses.get("mode", "keyed").strip(),
            eve=eve,
            noise=float(ses.get("noise", "0.0")),
            op_set=op_set,
            requested_key_bits=int(requested) if requested else None,
        )
    except ValueError as exc:
        raise ConfigError(f"{source}: [session]: {exc}")

    sweep = SweepAxes()
    if parser.has_section("sweep"):
        sw = parser["sweep"]
        try:
            sweep = SweepAxes(
                noise=_floats(sw["noise"]) if "noise" in sw else None,
                eve=tuple(sw["eve"].split()) if "eve" in sw else None,
                key_lengths=_ints(sw["key_lengths"]) if "key_lengths" in sw else None,
                n_blocks=_ints(sw["n_blocks"]) if "n_blocks" in sw else None,
            )
        except ValueError as exc:
            raise ConfigError(f"{source}: [sweep]: {exc}")

    device = DeviceModel()
    if parser.has_section("device"):
        dev = parser["device"]
        try:
            device = DeviceModel(
                loop_delay=int(dev.get("loop_delay", str(DeviceModel().loop_delay))),
                max_circuits=int(dev.get("max_circuits", str(DeviceModel().max_circuits))),
            )
        except ValueError as exc:
            raise ConfigError(f"{source}: [device]: {exc}")
    if parser.has_section("device") or parser.has_section("rearrangement"):
        section = "device" if parser.has_section("device") else "rearrangement"
        for op in op_set:
            try:
                perm_to_schedule(op.perm, device)
            except UnrealizableError as exc:
                raise ConfigError(f"{source}: [{section}]: op {op.index}: {exc}")

    try:
        return ExperimentSpec(
            name=exp.get("name", "experiment"),
            session=session,
            trials=int(exp.get("trials", "1")),
            seed=int(exp.get("seed", "0")),
            sweep=sweep,
            out=(exp.get("out", "").strip() or None),
            fmt=exp.get("format", "csv").strip(),
        )
    except ValueError as exc:
        raise ConfigError(f"{source}: [experiment]: {exc}")


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
    session = SessionConfig(
        n_blocks=2500,
        control_key=ControlKey.from_indices([0, 1, 2, 3]),
        check_fraction=0.5,
        error_threshold=0.1,
        mode="keyed",
    )
    return ExperimentSpec(
        name="paper-table",
        session=session,
        trials=2,
        seed=seed,
        sweep=SweepAxes(eve=("none", "guess_core", "bell_probe")),
    )


BUILTIN_EXPERIMENTS = {"paper-table": paper_table}
