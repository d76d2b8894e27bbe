"""Tests for the ``python -m repro`` command-line driver."""

import pytest

from repro.__main__ import main
from repro.aig import write_aag, write_aig
from repro.circuits import counter, modular_counter, token_ring


@pytest.fixture
def safe_aag(tmp_path):
    path = str(tmp_path / "safe.aag")
    write_aag(modular_counter(width=2, modulus=3, target=3).aig, path)
    return path


@pytest.fixture
def unsafe_aag(tmp_path):
    path = str(tmp_path / "unsafe.aag")
    write_aag(counter(width=2, target=3, with_enable=False).aig, path)
    return path


def test_version_flag_prints_package_version(capsys):
    from repro import __version__

    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert f"repro {__version__}" in capsys.readouterr().out


def test_lifecycle_flags_disable_the_counters(safe_aag, capsys):
    assert main([safe_aag, "--engine", "itpseq", "--stats"]) == 0
    lifecycle_on = capsys.readouterr().out
    assert main([safe_aag, "--engine", "itpseq", "--stats",
                 "--no-proof-reduce", "--no-itp-compact",
                 "--no-incremental-fixpoint"]) == 0
    lifecycle_off = capsys.readouterr().out
    assert "pass" in lifecycle_on and "pass" in lifecycle_off
    # With the lifecycle off every lifecycle counter reads zero.
    for counter in ("proof_nodes_trimmed", "itp_ands_compacted",
                    "fixpoint_encodings_reused"):
        assert f"{counter}: 0" in lifecycle_off
    # With it on, the persistent checker reuses encodings on this model.
    assert "fixpoint_encodings_reused: 0" not in lifecycle_on


def test_list_engines_includes_all_five(capsys):
    assert main(["--list-engines"]) == 0
    out = capsys.readouterr().out
    for name in ("itp", "itpseq", "sitpseq", "itpseqcba", "pdr"):
        assert name in out


@pytest.mark.parametrize("engine", ["pdr", "itp", "portfolio"])
def test_pass_exits_zero(engine, safe_aag, capsys):
    assert main([safe_aag, "--engine", engine]) == 0
    assert "pass" in capsys.readouterr().out.lower()


def test_fail_exits_one_and_prints_trace(unsafe_aag, capsys):
    assert main([unsafe_aag, "--engine", "pdr", "--trace", "--stats"]) == 1
    out = capsys.readouterr().out
    assert "fail" in out.lower()
    assert "inputs@0" in out
    assert "sat_calls" in out


def test_binary_aig_file_is_sniffed(tmp_path, capsys):
    path = str(tmp_path / "ring.aig")
    write_aig(token_ring(4).aig, path)
    assert main([path, "--engine", "pdr"]) == 0


def test_frame_limit_exhaustion_exits_two(unsafe_aag):
    # Bad state is 3 steps deep; one frame cannot decide it.
    assert main([unsafe_aag, "--engine", "pdr", "--max-bound", "1"]) == 2


def test_race_flag_races_the_portfolio(safe_aag, unsafe_aag, capsys):
    assert main([safe_aag, "--engine", "portfolio", "--race"]) == 0
    assert "pass" in capsys.readouterr().out.lower()
    assert main([unsafe_aag, "--engine", "portfolio", "--race",
                 "--jobs", "2"]) == 1
    assert "fail" in capsys.readouterr().out.lower()


def test_race_without_portfolio_is_usage_error(safe_aag, capsys):
    assert main([safe_aag, "--engine", "pdr", "--race"]) == 3
    assert "--race requires" in capsys.readouterr().err


def test_jobs_flag_is_validated(safe_aag, capsys):
    # --jobs without --race is silently meaningless; reject it loudly.
    assert main([safe_aag, "--engine", "portfolio", "--jobs", "2"]) == 3
    assert "--jobs only applies" in capsys.readouterr().err
    # Negative job counts are a usage error (3), never a traceback.
    assert main([safe_aag, "--engine", "portfolio", "--race",
                 "--jobs", "-1"]) == 3
    assert "--jobs must be" in capsys.readouterr().err


def test_missing_file_is_usage_error(capsys):
    assert main([]) == 3
    assert "required" in capsys.readouterr().err


def test_argparse_usage_errors_exit_three(safe_aag, capsys):
    # argparse's native exit status is 2, which the contract reserves for
    # "no answer" — usage errors must surface as 3.
    with pytest.raises(SystemExit) as info:
        main([safe_aag, "--engine", "bogus"])
    assert info.value.code == 3
    assert "error:" in capsys.readouterr().err


def test_unreadable_file_is_input_error(tmp_path, capsys):
    assert main([str(tmp_path / "nope.aag")]) == 3
    assert "error" in capsys.readouterr().err


def test_non_aiger_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "junk.aag"
    path.write_text("this is not AIGER\n")
    assert main([str(path)]) == 3
    assert "error" in capsys.readouterr().err


def test_corrupt_body_is_input_error_not_fail(tmp_path, capsys):
    # A non-integer body field must exit 3 (input error), never 1 — exit 1
    # is the documented "counterexample found" status.
    path = tmp_path / "corrupt.aag"
    path.write_text("aag 1 1 0 1 0\nx\n2\n")
    assert main([str(path)]) == 3
    assert "non-integer" in capsys.readouterr().err


def test_property_index_out_of_range_is_input_error(safe_aag, capsys):
    assert main([safe_aag, "--property", "7"]) == 3
    assert "error" in capsys.readouterr().err


def test_list_instances_prints_registry_with_sizes(capsys):
    assert main(["--list-instances"]) == 0
    out = capsys.readouterr().out
    assert "ring04" in out and "red_dup06" in out
    assert "PI=" in out and "FF=" in out and "AND=" in out
    assert "redundant" in out


def test_passes_flag_selects_the_pipeline(safe_aag, capsys):
    assert main([safe_aag, "--engine", "itpseq", "--stats",
                 "--passes", "coi,fraig,cnf"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out.lower()
    # The fraig counters surface in the stats block whenever the pass ran.
    assert "fraig_merges:" in out and "fraig_classes:" in out
    assert "fraig_sat_refutes:" in out and "fraig_rounds:" in out
    # An empty list is valid: preprocessing runs zero passes.
    assert main([safe_aag, "--engine", "itpseq", "--passes", ""]) == 0


def test_unknown_pass_name_exits_two(safe_aag, capsys):
    # Unknown names leave the run unanswered — the documented "no answer"
    # status (2), not the usage error (3).
    assert main([safe_aag, "--passes", "coi,fraigg"]) == 2
    err = capsys.readouterr().err
    assert "unknown preprocessing passes" in err
    assert "fraig" in err                    # the known-pass list is printed


def test_passes_flag_conflicts_with_no_preprocess(safe_aag, capsys):
    assert main([safe_aag, "--passes", "coi", "--no-preprocess"]) == 3
    assert "--passes conflicts" in capsys.readouterr().err


def test_no_preprocess_flag_disables_reduction(safe_aag, capsys):
    assert main([safe_aag, "--engine", "pdr", "--stats"]) == 0
    preprocessed = capsys.readouterr().out
    assert main([safe_aag, "--engine", "pdr", "--stats",
                 "--no-preprocess"]) == 0
    raw = capsys.readouterr().out
    # With preprocessing off every pre_*/fraig_* counter is structurally
    # zero, so --stats suppresses the whole [preprocess] group.
    assert "[preprocess]" not in raw
    assert "pre_ands_removed:" not in raw
    # Same verdict either way; the counter wrap logic shrinks under
    # preprocessing, so the stats block reports a nonzero reduction.
    assert "[preprocess]" in preprocessed
    assert "pre_ands_removed: 0" not in preprocessed
    assert "pre_ands_removed:" in preprocessed
    assert "pass" in preprocessed and "pass" in raw


def test_stats_groups_match_the_engine(safe_aag, capsys):
    # The interpolation engines report lifecycle counters, never PDR's.
    assert main([safe_aag, "--engine", "itpseq", "--stats"]) == 0
    itpseq = capsys.readouterr().out
    assert "[solver]" in itpseq and "[lifecycle]" in itpseq
    assert "itp_steps_replayed:" in itpseq
    assert "[pdr]" not in itpseq and "blocked_cubes:" not in itpseq
    assert "[cba]" not in itpseq and "refinements:" not in itpseq
    # PDR reports frame counters, never the interpolant lifecycle.
    assert main([safe_aag, "--engine", "pdr", "--stats"]) == 0
    pdr = capsys.readouterr().out
    assert "[pdr]" in pdr and "blocked_cubes:" in pdr
    assert "[lifecycle]" not in pdr and "itp_extractions:" not in pdr
    assert "itp_steps_replayed:" not in pdr
    # The CBA engine adds its abstraction group on top of the lifecycle.
    assert main([safe_aag, "--engine", "itpseqcba", "--stats"]) == 0
    cba = capsys.readouterr().out
    assert "[cba]" in cba and "refinements:" in cba and "[lifecycle]" in cba


def test_events_flag_writes_valid_trace(safe_aag, tmp_path, capsys):
    from repro.obs.events import validate_event
    from repro.obs.sinks import read_jsonl

    events = str(tmp_path / "trace.jsonl")
    assert main([safe_aag, "--engine", "itpseq", "--events", events]) == 0
    stream = read_jsonl(events)
    assert stream, "no events written"
    for event in stream:
        validate_event(event)
    names = {e["name"] for e in stream}
    assert {"run", "preprocess", "bound", "verdict"} <= names


def test_events_report_runs_on_cli_trace(safe_aag, tmp_path, capsys):
    from repro.obs.report import main as report_main

    events = str(tmp_path / "trace.jsonl")
    assert main([safe_aag, "--engine", "pdr", "--events", events]) == 0
    capsys.readouterr()
    assert report_main([events, "--validate"]) == 0
    assert report_main([events]) == 0
    out = capsys.readouterr().out
    assert "Per-phase breakdown" in out
    assert "strengthen" in out


def test_trace_and_events_are_distinct_flags(unsafe_aag, tmp_path, capsys):
    # --trace prints the counterexample inputs; --events records spans.
    events = str(tmp_path / "trace.jsonl")
    assert main([unsafe_aag, "--engine", "pdr", "--trace",
                 "--events", events]) == 1
    out = capsys.readouterr().out
    assert "inputs@0:" in out          # the counterexample trace, on stdout
    assert "inputs@0" not in open(events).read()  # not in the event stream


def test_verbose_flag_logs_to_stderr(safe_aag, capsys):
    assert main([safe_aag, "--engine", "itpseq"]) == 0
    quiet = capsys.readouterr()
    assert "run starting" not in quiet.err
    assert main([safe_aag, "--engine", "itpseq", "-v"]) == 0
    info = capsys.readouterr()
    assert "run starting" in info.err
    assert "INFO" in info.err
    assert main([safe_aag, "--engine", "itpseq", "-vv"]) == 0
    debug = capsys.readouterr()
    assert "DEBUG" in debug.err
    # Verbosity is stderr-only: stdout stays identical modulo the
    # wall-clock field, which varies between the two invocations.
    import re

    def _strip_time(text):
        return re.sub(r"t=\d+\.\d+s", "t=_s", text)

    assert _strip_time(info.out) == _strip_time(quiet.out)


def test_share_flag_combinations_are_validated(safe_aag, tmp_path, capsys):
    log = str(tmp_path / "lemmas.jsonl")
    assert main([safe_aag, "--engine", "portfolio", "--share"]) == 3
    assert "requires --race" in capsys.readouterr().err
    assert main([safe_aag, "--engine", "portfolio", "--race",
                 "--share-log", log]) == 3
    assert "requires --share" in capsys.readouterr().err
    assert main([safe_aag, "--engine", "portfolio", "--race", "--share",
                 "--share-replay", log]) == 3
    assert "conflicts" in capsys.readouterr().err
    # The retired trajectory-changing sharing mode is an unknown flag now.
    with pytest.raises(SystemExit) as info:
        main([safe_aag, "--engine", "itpseq", "--share", "--race",
              "--share-aggressive"])
    assert info.value.code == 3
    assert "unrecognized arguments" in capsys.readouterr().err


def test_shared_race_records_replayable_log(safe_aag, tmp_path, capsys):
    from repro.share.log import read_share_log

    log = str(tmp_path / "lemmas.jsonl")
    assert main([safe_aag, "--engine", "portfolio", "--race", "--share",
                 "--share-log", log, "--stats"]) == 0
    out = capsys.readouterr().out
    assert "share" in out              # the sharing counter group printed
    data = read_share_log(log)
    assert data.fingerprint is not None

    # The recorded log re-drives a single engine deterministically.
    assert main([safe_aag, "--engine", "itpseq",
                 "--share-replay", log, "--stats"]) == 0
    assert "share" in capsys.readouterr().out


def test_no_share_race_prints_no_share_group(safe_aag, capsys):
    assert main([safe_aag, "--engine", "portfolio", "--race",
                 "--no-share", "--stats"]) == 0
    out = capsys.readouterr().out
    assert "lemmas_tx" not in out
