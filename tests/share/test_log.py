"""The replayable share log: round-trips and torn-line tolerance."""

import hashlib
import json

import pytest

from repro.share.lemma import DepthLemma, FrameLemma, lemma_from_wire
from repro.share.log import ShareLog, read_share_log


def _write_sample(path):
    log = ShareLog(str(path))
    log.header("cafe0123cafe0123", ["itp", "pdr"])
    log.published(0, "pdr", FrameLemma(cube=((2, True),), level=1))
    log.published(1, "itp", DepthLemma(depth=3))
    log.accepted("itp", 2, [0])
    log.accepted("pdr", 3, [1])
    log.accepted("pdr", 3, [])  # empty accepts write nothing
    log.close()


def test_share_log_round_trip(tmp_path):
    path = tmp_path / "share.jsonl"
    _write_sample(path)
    data = read_share_log(str(path))
    assert data.fingerprint == "cafe0123cafe0123"
    assert data.engines == ["itp", "pdr"]
    assert sorted(data.published) == [0, 1]
    assert data.published[1].lemma == DepthLemma(depth=3)
    assert data.published[0].source == "pdr"
    assert [s.seq for s in data.deliveries("itp", 2)] == [0]
    assert [s.seq for s in data.deliveries("pdr", 3)] == [1]
    assert data.deliveries("itp", 99) == []


def test_share_log_tolerates_torn_final_line(tmp_path):
    path = tmp_path / "share.jsonl"
    _write_sample(path)
    # A loser killed mid-write leaves a truncated last line; the complete
    # prefix must stay fully usable.
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"t":"pub","seq":2,"src":"itp","lemma":{"kind":"d')
    data = read_share_log(str(path))
    assert sorted(data.published) == [0, 1]
    assert [s.seq for s in data.deliveries("itp", 2)] == [0]


def test_share_log_skips_junk_and_corrupted_records(tmp_path):
    path = tmp_path / "share.jsonl"
    _write_sample(path)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("not json at all\n")
        # Hash mismatch: payload corrupted in flight -> record dropped.
        handle.write('{"t":"pub","seq":7,"src":"itp",'
                     '"lemma":{"kind":"depth","depth":9},"hash":"0000"}\n')
        # Unknown record types are ignored, later records still parse.
        handle.write('{"t":"wat"}\n')
        handle.write('{"t":"acc","eng":"itp","bnd":5,"seqs":[1]}\n')
    data = read_share_log(str(path))
    assert 7 not in data.published
    assert [s.seq for s in data.deliveries("itp", 5)] == [1]


def test_share_log_skips_retired_reach_records(tmp_path):
    # Logs written before the accumulated-R ("reach") lemma kind was
    # retired still replay: that record is skipped, every other kept.
    reach = {"kind": "reach", "bound": 2, "leaves": [2], "nodes": [],
             "root": 2}
    with pytest.raises(ValueError):
        lemma_from_wire(reach)
    # The record as the old writer produced it, content hash included, so
    # it is the retired kind — not a corrupted payload — that drops it.
    payload = json.dumps(reach, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]
    path = tmp_path / "share.jsonl"
    _write_sample(path)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"t": "pub", "seq": 2, "src": "itp",
                                 "lemma": reach, "hash": digest}) + "\n")
        handle.write('{"t":"acc","eng":"pdr","bnd":4,"seqs":[2,0]}\n')
    data = read_share_log(str(path))
    assert data.fingerprint == "cafe0123cafe0123"
    assert sorted(data.published) == [0, 1]
    assert [s.seq for s in data.deliveries("itp", 2)] == [0]
    assert [s.seq for s in data.deliveries("pdr", 3)] == [1]
    assert [s.seq for s in data.deliveries("pdr", 4)] == [0]


def test_share_log_missing_file_is_empty():
    data = read_share_log("/nonexistent/share.jsonl")
    assert data.fingerprint is None
    assert data.published == {}
