"""The deterministic cooperative runner: schedule and log reproducibility.

Two cooperative races of the same instance must agree on *everything* —
winner, per-engine verdicts and stats, total clause count, and the share
log byte for byte — on any machine and at any CPU count: the turnstile
grants turns by the engines' own work counters (propagations plus
weighted clause additions), never by wall time.
"""

from repro.circuits import get_instance
from repro.core import EngineOptions
from repro.share import cooperative_race


def _options():
    return EngineOptions(max_bound=20, time_limit=None,
                         max_clauses=2_000_000,
                         max_propagations=50_000_000)


def _snapshot(outcome):
    return {
        "winner": outcome.winner,
        "clauses_total": outcome.clauses_total,
        "results": {
            name: (result.verdict.value, result.k_fp, result.j_fp,
                   result.stats.clauses_added, result.stats.lemmas_tx,
                   result.stats.lemmas_rx)
            for name, result in outcome.results.items()
        },
    }


def test_cooperative_race_is_deterministic(tmp_path):
    model = get_instance("arb03").build()
    outcomes, logs = [], []
    for attempt in range(2):
        log_path = tmp_path / f"run{attempt}.jsonl"
        outcome = cooperative_race(model, options=_options(),
                                   log_path=str(log_path))
        outcomes.append(_snapshot(outcome))
        logs.append(log_path.read_bytes())
    assert outcomes[0] == outcomes[1]
    assert logs[0] == logs[1]
    assert outcomes[0]["winner"] is not None


def test_cooperative_race_verdicts_match_expectations():
    for name in ("ring04", "mutexbug"):
        instance = get_instance(name)
        outcome = cooperative_race(instance.build(), options=_options())
        assert outcome.winner is not None, name
        assert outcome.result.verdict.value == instance.expected, name
        # Losers are synthesized OVERFLOW, never half-finished results.
        for engine, result in outcome.results.items():
            if engine != outcome.winner and not result.solved:
                assert result.message in ("cancelled: lost the race", "") \
                    or result.message


def test_blind_baseline_runs_same_cadence_without_traffic():
    model = get_instance("ring04").build()
    blind = cooperative_race(model, options=_options(), share=False)
    assert blind.winner is not None
    assert blind.result.verdict.value == "pass"
    # The blind bus drops publications before sequencing: nothing received.
    for result in blind.results.values():
        assert result.stats.lemmas_rx == 0


def test_cooperative_race_run_all_mode_conservative():
    model = get_instance("ring04").build()
    outcome = cooperative_race(model, options=_options(),
                               first_result_wins=False)
    # Nobody is cancelled: every UMC engine reports its own full
    # convergence.
    solved = [r for r in outcome.results.values() if r.solved]
    assert len(solved) >= 5  # bmc alone reports UNKNOWN on a pass instance
    verdicts = {r.verdict.value for r in solved}
    assert verdicts == {"pass"}
