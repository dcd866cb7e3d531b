"""Tests for the experiment harness, configuration grammar and reports."""

import csv
import hashlib
import math
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coreqkd import cli
from coreqkd.harness import (
    REPORT_COLUMNS,
    ConfigError,
    ExperimentSpec,
    ReportRow,
    SweepAxes,
    emit_report,
    iter_experiment,
    paper_table,
    parse_experiment,
    parse_experiment_string,
    parse_report,
    run_experiment,
    trial_seed,
    write_report,
)
from coreqkd.protocol import SessionConfig
from coreqkd.rearrange import ControlKey, CoreOpSet

ROOT = Path(__file__).resolve().parents[1]

GOOD_SPEC = """
[experiment]
name = smoke
trials = 2
seed = 5

[session]
mode = keyed
n_blocks = 20
control_key = 0001
check_fraction = 0.5
error_threshold = 0.1
noise = 0.0
"""


SESSION = "[session]\nn_blocks = 20\n"

# Inputs that must fail at load time, each with the section and key (or the
# sweep cell) its message has to name.
BAD_SPECS = {
    **{
        f"block_size_{n}": (SESSION + f"block_size = {n}\n", r"\[session\] block_size: unknown key")
        for n in (2, 3, 4, 5)
    },
    "misspelt_key": (SESSION + "n_blcks = 20\n", r"\[session\] n_blcks: unknown key"),
    "misspelt_section": (SESSION + "[sweeep]\nnoise = 0.1\n", r"\[sweeep\] noise: unknown key"),
    "default_section": ("[DEFAULT]\nnoise = 0.1\n" + SESSION, r"\[DEFAULT\] noise: unknown key"),
    "sweep_eve": (SESSION + "[sweep]\neve = none foo\n", r"\[sweep\] cell 1 \(.*eve=foo"),
    "sweep_noise": (SESSION + "[sweep]\nnoise = 0.0 1.5\n", r"\[sweep\] cell 1 \(noise=1.5"),
    "sweep_n_blocks": (SESSION + "[sweep]\nn_blocks = 0\n", r"\[sweep\] cell 0 \(.*n_blocks=0\)"),
    "sweep_key_lengths": (SESSION + "[sweep]\nkey_lengths = 0\n", r"\[sweep\] cell 0 \(.*n_k=0"),
    "negative_seed": ("[experiment]\nseed = -1\n" + SESSION, r"\[experiment\] seed"),
    "eve_budget": (SESSION + "[eve]\nkind = bell_probe\nbudget = x\n", r"\[eve\] budget"),
    "eve_nan_weights": (
        SESSION + "[eve]\nkind = guess_core\nweights = nan nan nan nan\n", r"\[eve\] weights"
    ),
    "eve_nan_direction": (SESSION + "[eve]\nkind = bell_probe\na = nan 0 0\n", r"\[eve\] a: direction"),
    "keyed_requested_key_bits": (
        SESSION + "requested_key_bits = 10\n", r"\[session\] requested_key_bits"
    ),
    "negative_requested_key_bits": (
        SESSION + "mode = bootstrap\nrequested_key_bits = -3\n", r"\[session\] requested_key_bits"
    ),
    **{
        f"guess_core_{key}": (
            SESSION + f"[eve]\nkind = guess_core\n{key} = {value}\n[sweep]\neve = bell_probe\n",
            rf"\[eve\] {key}: not a key of kind = guess_core",
        )
        for key, value in (("a", "1 0 0"), ("b", "0 0 1"), ("budget", "2"))
    },
    "five_element_perms": (
        SESSION + "[rearrangement]\nperms = 01234 12340 23401 34012\n",
        r"\[rearrangement\] perms: block registers are capped at 8 qubits",
    ),
    "eve_budget_zero": (SESSION + "[eve]\nkind = bell_probe\nbudget = 0\n", r"\[eve\] budget must be >= 1"),
    "device_loop_delay_zero": (SESSION + "[device]\nloop_delay = 0\n", r"\[device\] loop_delay must be >= 1"),
    "device_max_circuits_zero": (
        SESSION + "[device]\nmax_circuits = 0\n", r"\[device\] max_circuits must be >= 1"
    ),
    "check_fraction_above_one": (
        SESSION + "check_fraction = 1.5\n", r"\[session\] check_fraction must lie in \(0, 1\)"
    ),
    "long_name": ("[experiment]\nname = " + "x" * 140_000 + "\n" + SESSION, r"\[experiment\] name"),
}


def tiny_spec(**overrides) -> ExperimentSpec:
    session = SessionConfig(
        n_blocks=overrides.pop("n_blocks", 20),
        control_key=ControlKey.from_indices([0, 1]),
        seed=0,
        error_threshold=overrides.pop("error_threshold", 0.1),
        mode=overrides.pop("mode", "keyed"),
    )
    return ExperimentSpec(name="tiny", session=session, trials=2, seed=9, **overrides)


class TestConfigParsing:
    def test_round_trip_of_a_full_spec(self, tmp_path):
        text = GOOD_SPEC + "\n[sweep]\nnoise = 0.0 0.1\neve = none guess_core\n"
        path = tmp_path / "exp.ini"
        path.write_text(text)
        spec = parse_experiment(str(path))
        assert spec.name == "smoke"
        assert spec.trials == 2
        assert spec.sweep.noise == (0.0, 0.1)
        assert spec.sweep.eve == ("none", "guess_core")
        assert spec.session.control_key.op_indices == (0, 1)

    def test_missing_session_section(self):
        with pytest.raises(ConfigError, match=r"\[session\]"):
            parse_experiment_string("[experiment]\nname = x\n")

    def test_bad_value_reports_section_and_key(self):
        text = GOOD_SPEC.replace("check_fraction = 0.5", "check_fraction = lots")
        with pytest.raises(ConfigError, match=r"\[session\]"):
            parse_experiment_string(text)

    def test_bad_syntax_reports_line(self):
        with pytest.raises(ConfigError, match="line"):
            parse_experiment_string("[session\nmode = keyed\n")

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="no/such/file"):
            parse_experiment("no/such/file.ini")

    def test_eve_section(self):
        text = GOOD_SPEC + "\n[eve]\nkind = bell_probe\na = 0 0 2\nb = 1 0 0\nbudget = 2\n"
        spec = parse_experiment_string(text)
        assert spec.session.eve.kind == "bell_probe"
        assert spec.session.eve.a.z == 1.0  # normalised on parse
        assert spec.session.eve.budget == 2

    def test_custom_rearrangement_set(self):
        text = GOOD_SPEC + "\n[rearrangement]\nperms = 0123 1230 2301 3012\n"
        spec = parse_experiment_string(text)
        assert spec.session.op_set == CoreOpSet.cyclic()

    def test_device_section(self):
        """A device that cannot build every op of the set is rejected at load time."""
        text = GOOD_SPEC + "\n[device]\nloop_delay = 2\nmax_circuits = 3\n"
        with pytest.raises(ConfigError, match=r"\[device\].*UNREALIZABLE"):
            parse_experiment_string(text)
        parse_experiment_string(GOOD_SPEC + "\n[device]\nloop_delay = 4\nmax_circuits = 3\n")

    @pytest.mark.parametrize("name", BAD_SPECS)
    def test_bad_input_fails_naming_its_key(self, name):
        text, names_key = BAD_SPECS[name]
        with pytest.raises(ConfigError, match=names_key):
            parse_experiment_string(text)

    def test_an_empty_value_means_the_default(self):
        text = (
            "[experiment]\nname =\nformat =\n[session]\nmode =\ncontrol_key =\n"
            "n_blocks =\ncheck_fraction =\n[eve]\nkind =\n"
        )
        assert parse_experiment_string(text) == parse_experiment_string("[session]\n")

    def test_the_longest_csv_readable_name_round_trips(self):
        spec = replace(tiny_spec(), name="x" * csv.field_size_limit())
        row = ReportRow(spec.name, 0.0, "none", 1, 1, 1, *[None] * (len(REPORT_COLUMNS) - 6))
        assert parse_report(emit_report([row], "csv"), "csv") == [row]

    def test_documented_experiments_parse(self):
        """The demo files and the README's example follow the grammar."""
        paths = sorted((ROOT / "demos" / "experiments").glob("*.ini"))
        assert len(paths) == 2
        for path in paths:
            parse_experiment(str(path))
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        parse_experiment_string(re.search(r"```ini\n(.*?)```", readme, re.S).group(1))

    def test_rearrangement_the_default_device_cannot_build(self):
        text = GOOD_SPEC + "\n[rearrangement]\nperms = 0123 1032 2301 3210\n"
        with pytest.raises(ConfigError, match=r"\[rearrangement\].*UNREALIZABLE"):
            parse_experiment_string(text)


# Small experiments whose csv reports are pinned by sha256, one per path through
# the engines: keyed guess_core with noise, a bootstrap noise sweep, bell_probe rows
# on the per-block engine and on the keyed one-duo tape.
# A change that moves any RNG stream or any outcome changes a digest.
PINNED_REPORTS = {
    "keyed_guess_core_noise": (
        "[experiment]\nname = pin-keyed\ntrials = 2\nseed = 17\n"
        "[session]\nn_blocks = 40\ncontrol_key = 00011011\nerror_threshold = 1.0\nnoise = 0.1\n"
        "[eve]\nkind = guess_core\n",
        "baf0a605c43b5357948e6b6a6c10dcb9019d360643766680aa157253435e0039",
    ),
    "bootstrap_noise_sweep": (
        "[experiment]\nname = pin-bootstrap\ntrials = 2\nseed = 23\n"
        "[session]\nmode = bootstrap\nn_blocks = 64\n"
        "[sweep]\nnoise = 0.0 0.1 0.37\n",
        "eba4e5101e8602d7e45a47158ee4c481d8550067c2ae69b98c4888bd0d67640b",
    ),
    "bell_probe": (
        "[experiment]\nname = pin-probe\ntrials = 2\nseed = 29\n"
        "[session]\nn_blocks = 30\ncontrol_key = 0110\nerror_threshold = 1.0\nnoise = 0.05\n"
        "[eve]\nkind = bell_probe\na = 1 0 0\nb = 0 1 1\nbudget = 2\n",
        "5c706127b1052d690da319840e7f20bd72337d3964ff94ace92ac2ec87443cec",
    ),
    # Probes of up to three duos per block under noise, on bootstrap blocks whose
    # ops mostly differ: the dense core absorbs mismatched pairs and takes Paulis.
    "bootstrap_bell_probe": (
        "[experiment]\nname = pin-probe-bootstrap\ntrials = 2\nseed = 31\n"
        "[session]\nmode = bootstrap\nn_blocks = 64\nerror_threshold = 1.0\nnoise = 0.1\n"
        "[eve]\nkind = bell_probe\na = 0 0 1\nb = 1 1 0\nbudget = 3\n",
        "9a1cb8c38da800d4c5c8b22f40bd3bcf840dc527b3da185fbc4e89cee7fac189",
    ),
    # A keyed probe of one duo per block under noise, with a grouped key.
    "keyed_bell_probe_noise": (
        "[experiment]\nname = pin-probe-keyed\ntrials = 2\nseed = 37\n"
        "[session]\nn_blocks = 120\ncontrol_key = 0110\ngroup_size = 2\nerror_threshold = 1.0\nnoise = 0.1\n"
        "[eve]\nkind = bell_probe\na = 0 1 0\nb = 1 1 1\n",
        "d01709471b17a17bde6f17534a9528000efe7399e9c9757dfdc700369536e80c",
    ),
    # Every Eve kind against the same 1500-block keyed session.
    "attack_comparison": (
        (ROOT / "demos" / "experiments" / "attack_comparison.ini").read_text(encoding="utf-8"),
        "08007532f52988b84bbcc0234f6b2e748e3eba2cac4e4d53ec23b6541e0077d9",
    ),
    # The benchmark's keyed-intercept job (perfbench/workloads.py) at seed 3.
    "keyed_intercept": (
        "[experiment]\nname = keyed-intercept\ntrials = 4\nseed = 3\n"
        "[session]\nmode = keyed\nn_blocks = 1000\ncontrol_key = 00011011\n"
        "check_fraction = 0.5\nerror_threshold = 1.0\n"
        "[eve]\nkind = guess_core\n",
        "3c4660b8e304b8ff1d1e094798292d05909a0b85c598b3a7ccd40ea756afab88",
    ),
    # A keyed noise sweep with no Eve.
    "noise_sweep": (
        (ROOT / "demos" / "experiments" / "noise_sweep.ini").read_text(encoding="utf-8"),
        "84126b208b447a08c8695552aed0813242ceeff1ee8f9ab2ea341864b94f505a",
    ),
    # A noisy keyed session with no Eve, a grouped key and a non-cyclic op set, in jsonl.
    "keyed_noise_perms_jsonl": (
        "[experiment]\nname = pin-keyed-noise-perms\ntrials = 2\nseed = 43\nformat = jsonl\n"
        "[session]\nn_blocks = 90\ncontrol_key = 0110\ngroup_size = 2\nerror_threshold = 1.0\nnoise = 0.1\n"
        "[rearrangement]\nperms = 0123 1032 2301 3012\n",
        "ac5ba66f6374fa68643696508ee9b8049228db23e59b9c2c8bcad76d51ff6c0f",
    ),
}

# Standard output of `coreqkd demo --blocks 3 --seed 7`, which prints every
# pair and block record of one session in transcript order.
PINNED_DEMO = "88d776294b4fd71898da02e9020242ce0461e5e1664a62f9a5d6d2c217ae8446"

# Standard output of `coreqkd run paper-table --seed 99`, the headline csv.
PINNED_PAPER_TABLE = "212f768a59b69823c1cf8be2f0f23fc0eee13bb0ba5c96d0d766d69a5a7a2e62"


def report_digest(text: str) -> str:
    spec = parse_experiment_string(text)
    return hashlib.sha256(emit_report(run_experiment(spec), spec.fmt).encode()).hexdigest()


class TestRngStreams:
    @pytest.mark.parametrize("name", PINNED_REPORTS)
    def test_report_bytes_are_pinned(self, name):
        text, digest = PINNED_REPORTS[name]
        assert report_digest(text) == digest

    def test_demo_output_is_pinned(self, capsys):
        assert cli.main(["demo", "--blocks", "3", "--seed", "7"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == PINNED_DEMO

    def test_paper_table_output_is_pinned(self, capsys):
        assert cli.main(["run", "paper-table", "--seed", "99"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == PINNED_PAPER_TABLE


class TestSeeding:
    def test_trial_seeds_are_deterministic_and_distinct(self):
        seeds = {trial_seed(42, p, t) for p in range(4) for t in range(4)}
        assert len(seeds) == 16
        assert trial_seed(42, 1, 2) == trial_seed(42, 1, 2)
        assert trial_seed(42, 1, 2) != trial_seed(43, 1, 2)


class TestRunExperiment:
    def test_grid_covers_the_sweep_product(self):
        spec = tiny_spec(sweep=SweepAxes(noise=(0.0, 0.1), eve=("none", "guess_core")))
        rows = run_experiment(spec)
        assert len(rows) == 4
        assert {(r.noise, r.eve) for r in rows} == {
            (0.0, "none"), (0.0, "guess_core"), (0.1, "none"), (0.1, "guess_core")
        }

    def test_single_trial_fixed_seed_is_reproducible(self):
        spec = tiny_spec()
        assert run_experiment(spec) == run_experiment(spec)

    def test_no_eve_row_is_error_free(self):
        rows = run_experiment(tiny_spec())
        assert rows[0].mean_error_rate == 0.0
        assert rows[0].key_bits > 0

    def test_known_key_eve_without_a_key_holds_each_trial_key(self):
        """An [eve] known_key with no key follows the key redrawn per sweep point."""
        text = (
            "[experiment]\nseed = 4\n[session]\nn_blocks = 200\n"
            "[eve]\nkind = known_key\n[sweep]\nkey_lengths = 1 4\n"
        )
        rows = run_experiment(parse_experiment_string(text))
        assert [r.n_k for r in rows] == [1, 4]
        assert all(r.mean_error_rate == 0.0 for r in rows)

    def test_known_key_eve_with_an_explicit_key_keeps_it(self):
        text = (
            "[experiment]\nseed = 4\n[session]\nn_blocks = 200\nerror_threshold = 1.0\n"
            "[eve]\nkind = known_key\nkey = 01\n[sweep]\nkey_lengths = 4\n"
        )
        rows = run_experiment(parse_experiment_string(text))
        assert rows[0].mean_error_rate > 0.2

    def test_key_length_sweep_draws_keys_per_point(self):
        spec = tiny_spec(sweep=SweepAxes(key_lengths=(1, 3)), error_threshold=1.0)
        rows = run_experiment(spec)
        assert [r.n_k for r in rows] == [1, 3]

    def test_bootstrap_sweep_sift_rate_within_binomial_se(self):
        """Oracle: |sift - 1/4| within 3 binomial standard errors per point."""
        spec = tiny_spec(
            mode="bootstrap",
            sweep=SweepAxes(n_blocks=(1_000, 10_000)),
            error_threshold=0.1,
        )
        rows = run_experiment(spec)
        for row in rows:
            se = math.sqrt(0.25 * 0.75 / row.n_blocks)
            assert abs(row.sift_rate - 0.25) <= 3 * se
        assert rows[1].n_blocks > rows[0].n_blocks

    def test_paper_table_reproduces_the_three_headline_numbers(self):
        rows = run_experiment(paper_table(seed=123))
        by_eve = {r.eve: r for r in rows}
        assert by_eve["none"].mean_error_rate == 0.0
        assert by_eve["guess_core"].mean_error_rate == pytest.approx(0.5625, abs=0.02)
        assert by_eve["guess_core"].wrong_guess_error_rate == pytest.approx(0.75, abs=0.02)
        assert by_eve["guess_core"].eve_accuracy == pytest.approx(0.625, abs=0.02)
        assert by_eve["bell_probe"].probe_mean == pytest.approx(0.0, abs=0.06)


class TestReports:
    def test_empty_rows_give_header_only_csv(self):
        text = emit_report([], "csv")
        assert text.count("\n") == 1
        assert text.startswith("experiment,noise,eve,")

    def test_three_rows_of_jsonl_parse_back(self):
        rows = run_experiment(tiny_spec(sweep=SweepAxes(noise=(0.0, 0.05, 0.1))))
        text = emit_report(rows, "jsonl")
        assert len(text.splitlines()) == 3
        assert parse_report(text, "jsonl") == rows

    def test_csv_round_trip_is_byte_identical(self):
        rows = run_experiment(tiny_spec(sweep=SweepAxes(eve=("none", "guess_core"))))
        text = emit_report(rows, "csv")
        again = emit_report(parse_report(text, "csv"), "csv")
        assert again == text

    def test_write_report_failure_names_the_path(self, tmp_path):
        rows = run_experiment(tiny_spec())
        bad = str(tmp_path / "missing_dir" / "report.csv")
        with pytest.raises(OSError, match="report.csv"):
            write_report(rows, bad, "csv")

    def test_empty_cells_round_trip_as_none(self):
        row = ReportRow(
            experiment="x", noise=0.0, eve="none", n_k=1, n_blocks=10, trials=1,
            mean_error_rate=0.0, error_rate_se=0.0,
            wrong_guess_error_rate=None, wrong_guess_error_se=None,
            sift_rate=None, sift_rate_se=None, key_bits=8.0, key_bits_se=0.0,
            eve_accuracy=None, eve_accuracy_se=None, probe_mean=None, probe_se=None,
        )
        assert parse_report(emit_report([row], "csv"), "csv") == [row]

    def test_csv_round_trip_with_a_comma_in_the_name(self):
        rows = run_experiment(replace(tiny_spec(), name="a,b"))
        text = emit_report(rows, "csv")
        assert parse_report(text, "csv") == rows
        assert emit_report(parse_report(text, "csv"), "csv") == text


cells = st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def report_rows(draw):
    stats = {c: draw(cells) for c in REPORT_COLUMNS[6:]}
    return ReportRow(
        experiment=draw(st.text()),
        noise=draw(st.floats(allow_nan=False, allow_infinity=False)),
        eve=draw(st.text()),
        n_k=draw(st.integers(0, 2**40)),
        n_blocks=draw(st.integers(0, 2**40)),
        trials=draw(st.integers(0, 2**40)),
        **stats,
    )


class TestReportRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(report_rows(), max_size=4), fmt=st.sampled_from(["csv", "jsonl"]))
    def test_parse_inverts_emit(self, rows, fmt):
        text = emit_report(rows, fmt)
        assert parse_report(text, fmt) == rows
        assert emit_report(parse_report(text, fmt), fmt) == text


class TestCli:
    def test_run_with_spec_file(self, tmp_path):
        from coreqkd.cli import main

        spec_path = tmp_path / "exp.ini"
        spec_path.write_text(GOOD_SPEC)
        out = tmp_path / "rows.csv"
        assert main(["run", str(spec_path), "--out", str(out)]) == 0
        assert out.read_text().startswith("experiment,")

    def test_run_rejects_bad_spec(self, tmp_path):
        from coreqkd.cli import main

        bad = tmp_path / "bad.ini"
        bad.write_text("[session]\ncheck_fraction = nope\n")
        assert main(["run", str(bad)]) == 2

    def test_run_rejects_an_unbuildable_device(self, tmp_path):
        from coreqkd.cli import main

        spec_path = tmp_path / "exp.ini"
        spec_path.write_text(GOOD_SPEC + "\n[device]\nloop_delay = 2\nmax_circuits = 3\n")
        assert main(["run", str(spec_path)]) == 2

    @pytest.mark.parametrize("text, args, names_key", [
        ("[experiment]\nseed = -1\n" + SESSION, [], r"\[experiment\] seed"),
        (SESSION + "[sweep]\neve = foo\n", [], r"\[sweep\] cell 0"),
        (SESSION, ["--seed", "-1"], r"seed"),
    ], ids=["negative_seed", "sweep_eve", "seed_flag"])
    def test_bad_input_exits_2_without_a_traceback(self, tmp_path, text, args, names_key):
        spec_path = tmp_path / "exp.ini"
        spec_path.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "coreqkd", "run", str(spec_path), *args],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert re.search(names_key, proc.stderr)
        assert proc.stdout == ""

    def test_a_failing_cell_keeps_the_rows_before_it(self, tmp_path, capsys):
        """A cell short of sifted bits still leaves the finished rows; run exits 1."""
        from coreqkd.cli import main

        text = (
            "[experiment]\nseed = 1\ntrials = 3\n"
            "[session]\nmode = bootstrap\nrequested_key_bits = 200\n"
            "[sweep]\nn_blocks = 2000 40\n"
        )
        spec_path = tmp_path / "exp.ini"
        spec_path.write_text(text)
        assert main(["run", str(spec_path)]) == 1
        captured = capsys.readouterr()
        first_row = next(iter_experiment(parse_experiment_string(text)))
        assert first_row.n_blocks == 2000
        assert captured.out == emit_report([first_row], "csv")
        assert re.search(r"cell 1 \(.*n_blocks=40\), trial 0: INSUFFICIENT_SIFT", captured.err)

    def test_demo_smoke(self, capsys):
        from coreqkd.cli import main

        assert main(["demo", "--blocks", "2", "--seed", "3"]) == 0
        captured = capsys.readouterr()
        assert "raw key" in captured.out

    def test_module_entry_point(self, tmp_path):
        spec_path = tmp_path / "exp.ini"
        spec_path.write_text(GOOD_SPEC)
        proc = subprocess.run(
            [sys.executable, "-m", "coreqkd", "run", str(spec_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("experiment,")
