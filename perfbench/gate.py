"""Correctness gate: the closed-form values every session and report must hit.

Each statistical check allows ``Z_TOL`` standard errors around the exact
value, so a correct simulator fails a given check with probability about
6e-7. Exact checks (clean channel, noiseless bootstrap, correctly guessed
blocks) allow no deviation at all.

Pairs of one block are not independent under the ``guess_core`` attack:
Eve's guess is shared by the whole block, and a wrong guess of shift 2
makes two 2-cycles whose pairs err together. The standard errors of those
checks carry the resulting design effect, derived below from the joint
error probability of two pairs of one block.
"""

from __future__ import annotations

import math
from typing import Sequence

Z_TOL = 5.0

GUESS_RIGHT = 1 / 4
GUESS_CHECKED_ERROR = 9 / 16
GUESS_WRONG_ERROR = 3 / 4
BOOTSTRAP_SIFT = 1 / 4
PROBE_MEAN = 0.0

# Probability that two pairs of one block both err, averaged over the six
# pairs of a 4-pair block. Eve's guess is right (GUESS_RIGHT): no error.
# Cyclic shift 1 or 3 (1/4 each): the block's errors e_k are uniform with
# XOR 0, hence pairwise independent: (3/4)^2. Shift 2 (1/4): two of the six
# pairs share a 2-cycle and err together (3/4); the other four are
# independent.
_SHIFT2_JOINT = (2 * GUESS_WRONG_ERROR + 4 * GUESS_WRONG_ERROR**2) / 6
GUESS_JOINT_ERROR = (0.0 + 2 * GUESS_WRONG_ERROR**2 + _SHIFT2_JOINT) / 4
GUESS_WRONG_JOINT_ERROR = (2 * GUESS_WRONG_ERROR**2 + _SHIFT2_JOINT) / 3


def correlation(p: float, joint: float) -> float:
    """Correlation of two Bernoulli(p) indicators with P(both) = joint."""
    return (joint - p * p) / (p * (1.0 - p))


GUESS_PAIR_CORRELATION = correlation(GUESS_CHECKED_ERROR, GUESS_JOINT_ERROR)
GUESS_WRONG_PAIR_CORRELATION = correlation(GUESS_WRONG_ERROR, GUESS_WRONG_JOINT_ERROR)


def noisy_pair_error(p: float) -> float:
    """Bell-symbol error of a pair whose two qubits are depolarized at rate p.

    The symbol survives when both qubits see the identity or both see the
    same Pauli: 1 - (1 - 3p/4)^2 - 3(p/4)^2.
    """
    return 1.0 - (1.0 - 0.75 * p) ** 2 - 3.0 * (p / 4.0) ** 2


def tolerance(p: float, n: float, design_effect: float = 1.0) -> float:
    """Z_TOL binomial standard errors of a rate p over n correlated trials."""
    return Z_TOL * math.sqrt(p * (1.0 - p) * design_effect / n)


def _out_of_tolerance(label: str, got: float, want: float, tol: float) -> list[str]:
    if abs(got - want) <= tol:
        return []
    return [f"{label} {got:.6f} outside {want:.6f} +- {tol:.6f}"]


def _mismatches(records) -> int:
    return sum(1 for r in records if r.measured != r.prepared)


def check_session(point: dict, block_size: int, transcript) -> list[str]:
    """Problems with one session transcript of a sweep cell; empty if correct.

    ``point`` is the harness sweep cell (``noise``, ``eve``, ``n_blocks``).
    """
    eve, noise, n_blocks = point["eve"], float(point["noise"]), int(point["n_blocks"])
    records, blocks, verdict = transcript.records, transcript.blocks, transcript.verdict
    if len(blocks) != n_blocks or len(records) != n_blocks * block_size:
        return [f"transcript holds {len(blocks)} blocks / {len(records)} pairs, "
                f"expected {n_blocks} / {n_blocks * block_size}"]
    if verdict is None:
        return ["session has no verdict"]
    checked = [r for r in records if r.checked]
    checked_errors = _mismatches(checked)
    problems = []
    if verdict.checked_count != len(checked):
        problems.append(f"verdict counts {verdict.checked_count} checked pairs, "
                        f"transcript marks {len(checked)}")
    if checked and verdict.measured_error_rate != checked_errors / len(checked):
        problems.append("verdict error rate disagrees with the checked pairs")

    if transcript.mode == "keyed" and eve == "none" and noise == 0.0:
        wrong = _mismatches(records)
        if wrong:
            problems.append(f"clean channel: {wrong} pairs measured wrong")
    elif transcript.mode == "keyed" and eve == "guess_core" and noise == 0.0:
        problems += _check_guess_session(records, blocks, checked, checked_errors, block_size)
    elif transcript.mode == "keyed" and eve == "bell_probe" and noise == 0.0:
        probes = transcript.eve_log.probes if transcript.eve_log else []
        if len(probes) != n_blocks:
            problems.append(f"{len(probes)} probe outcomes for {n_blocks} blocks")
        elif any(p.outcome not in (1, -1) for p in probes):
            problems.append("probe outcome outside {+1, -1}")
        else:
            mean = sum(p.outcome for p in probes) / len(probes)
            problems += _out_of_tolerance(
                "probe mean", mean, PROBE_MEAN, Z_TOL / math.sqrt(len(probes))
            )
    elif transcript.mode == "bootstrap" and eve == "none":
        sift = sum(1 for b in blocks if b.sifted) / n_blocks
        problems += _out_of_tolerance(
            "sift rate", sift, BOOTSTRAP_SIFT, tolerance(BOOTSTRAP_SIFT, n_blocks)
        )
        sifted = [r for r in records if r.sifted]
        if noise == 0.0:
            wrong = _mismatches(sifted)
            if wrong:
                problems.append(f"noiseless bootstrap: {wrong} sifted pairs measured wrong")
        elif checked:
            want = noisy_pair_error(noise)
            problems += _out_of_tolerance(
                f"checked error at noise {noise}", checked_errors / len(checked),
                want, tolerance(want, len(checked)),
            )
    else:
        problems.append(f"no gate for mode {transcript.mode!r}, eve {eve!r}, noise {noise}")
    return problems


def _check_guess_session(records, blocks, checked, checked_errors, block_size) -> list[str]:
    problems = []
    by_block = [records[i : i + block_size] for i in range(0, len(records), block_size)]
    right = [pairs for pairs, b in zip(by_block, blocks) if b.eve_guess_correct is True]
    wrong = [pairs for pairs, b in zip(by_block, blocks) if b.eve_guess_correct is False]
    if len(right) + len(wrong) != len(blocks):
        problems.append("a block carries no Eve guess")
    right_errors = sum(_mismatches(pairs) for pairs in right)
    if right_errors:
        problems.append(f"{right_errors} errors in correctly guessed blocks")
    if checked:
        # Design effect: each checked pair shares its block with sum C_b(C_b-1)/n
        # other checked pairs on average, each correlated by GUESS_PAIR_CORRELATION.
        per_block = [sum(1 for r in pairs if r.checked) for pairs in by_block]
        partners = sum(c * (c - 1) for c in per_block) / len(checked)
        deff = 1.0 + GUESS_PAIR_CORRELATION * partners
        problems += _out_of_tolerance(
            "checked error", checked_errors / len(checked), GUESS_CHECKED_ERROR,
            tolerance(GUESS_CHECKED_ERROR, len(checked), deff),
        )
    if wrong:
        n = len(wrong) * block_size
        deff = 1.0 + GUESS_WRONG_PAIR_CORRELATION * (block_size - 1)
        problems += _out_of_tolerance(
            "wrong-guess error", sum(_mismatches(p) for p in wrong) / n,
            GUESS_WRONG_ERROR, tolerance(GUESS_WRONG_ERROR, n, deff),
        )
    return problems


def check_rows(rows: Sequence, name: str, points: Sequence[dict], trials: int,
               block_size: int, check_fraction: float, mode: str) -> list[str]:
    """Problems with the aggregated report rows of one experiment run."""
    if len(rows) != len(points):
        return [f"report has {len(rows)} rows for {len(points)} sweep cells"]
    problems = []
    for row, point in zip(rows, points):
        where = f"row eve={point['eve']} noise={point['noise']} n_blocks={point['n_blocks']}"
        ident = (row.experiment, row.eve, row.noise, row.n_blocks, row.trials)
        want_ident = (name, point["eve"], float(point["noise"]), int(point["n_blocks"]), trials)
        if ident != want_ident:
            problems.append(f"{where}: identifies as {ident}")
            continue
        problems += [f"{where}: {p}" for p in _check_row(
            row, trials, block_size, check_fraction, mode
        )]
    return problems


def _check_row(row, trials: int, block_size: int, check_fraction: float, mode: str) -> list[str]:
    pairs = row.n_blocks * block_size
    if row.mean_error_rate is None:
        return ["no error rate"]
    if mode == "keyed" and row.eve == "none" and row.noise == 0.0:
        if row.mean_error_rate != 0.0 or row.error_rate_se != 0.0:
            return [f"clean channel error {row.mean_error_rate} +- {row.error_rate_se}"]
        return []
    if mode == "keyed" and row.eve == "guess_core" and row.noise == 0.0:
        n_check = math.ceil(check_fraction * pairs)
        partners = (block_size - 1) * (n_check - 1) / (pairs - 1)
        deff = 1.0 + GUESS_PAIR_CORRELATION * partners
        got = _out_of_tolerance(
            "checked error", row.mean_error_rate, GUESS_CHECKED_ERROR,
            tolerance(GUESS_CHECKED_ERROR, trials * n_check, deff),
        )
        if row.wrong_guess_error_rate is None:
            return got + ["no wrong-guess error rate"]
        n_wrong = trials * pairs * (1 - GUESS_RIGHT)
        deff = 1.0 + GUESS_WRONG_PAIR_CORRELATION * (block_size - 1)
        return got + _out_of_tolerance(
            "wrong-guess error", row.wrong_guess_error_rate, GUESS_WRONG_ERROR,
            tolerance(GUESS_WRONG_ERROR, n_wrong, deff),
        )
    if mode == "keyed" and row.eve == "bell_probe" and row.noise == 0.0:
        if row.probe_mean is None:
            return ["no probe mean"]
        return _out_of_tolerance(
            "probe mean", row.probe_mean, PROBE_MEAN, Z_TOL / math.sqrt(trials * row.n_blocks)
        )
    if mode == "bootstrap" and row.eve == "none":
        if row.sift_rate is None:
            return ["no sift rate"]
        got = _out_of_tolerance(
            "sift rate", row.sift_rate, BOOTSTRAP_SIFT,
            tolerance(BOOTSTRAP_SIFT, trials * row.n_blocks),
        )
        if row.noise == 0.0:
            if row.mean_error_rate != 0.0:
                got.append(f"noiseless error {row.mean_error_rate}")
            return got
        want = noisy_pair_error(row.noise)
        n_check = check_fraction * pairs * BOOTSTRAP_SIFT
        return got + _out_of_tolerance(
            "checked error", row.mean_error_rate, want, tolerance(want, trials * n_check)
        )
    return [f"no gate for mode {mode!r}, eve {row.eve!r}, noise {row.noise}"]


def check_round_trip(rows: Sequence, emit, parse) -> list[str]:
    """``parse(emit(rows)) == rows`` in both report formats."""
    problems = []
    for fmt in ("csv", "jsonl"):
        if parse(emit(rows, fmt), fmt) != list(rows):
            problems.append(f"{fmt} report does not round-trip")
    return problems


def check_report_text(text: str, fmt: str, emit, parse) -> tuple[list, list[str]]:
    """Parse a written report and require that it re-emits byte for byte."""
    try:
        rows = parse(text, fmt)
    except (ValueError, TypeError) as exc:  # TypeError: a JSON line with unknown keys
        return [], [f"report does not parse: {exc}"]
    if emit(rows, fmt) != text:
        return rows, [f"{fmt} report does not re-emit byte for byte"]
    return rows, []
