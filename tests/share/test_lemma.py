"""Lemma wire format: round-trips, hashes, fingerprints."""

import pytest

from repro.circuits import get_instance, token_ring
from repro.share.lemma import (
    DepthLemma,
    FrameLemma,
    lemma_from_wire,
    lemma_hash,
    model_fingerprint,
)


def _ring():
    return token_ring(4)


def test_depth_lemma_wire_round_trip():
    lemma = DepthLemma(depth=7)
    again = lemma_from_wire(lemma.to_wire())
    assert again == lemma
    assert lemma_hash(again) == lemma_hash(lemma)


def test_frame_lemma_wire_round_trip_canonicalizes():
    lemma = FrameLemma(cube=((2, True), (6, False)), level=3)
    wire = lemma.to_wire()
    # The wire cube is JSON-safe scalars only.
    assert wire["cube"] == [[2, 1], [6, 0]]
    again = lemma_from_wire(wire)
    assert again == lemma
    # Unsorted input cubes canonicalize to the same lemma (and hash).
    shuffled = dict(wire, cube=[[6, 0], [2, 1]])
    assert lemma_from_wire(shuffled) == lemma
    assert lemma_hash(lemma_from_wire(shuffled)) == lemma_hash(lemma)


def test_lemma_from_wire_rejects_junk():
    with pytest.raises(ValueError):
        lemma_from_wire({"kind": "banana"})
    with pytest.raises((ValueError, KeyError, TypeError)):
        lemma_from_wire({"kind": "frame", "cube": "nope"})


def test_lemma_hashes_are_distinct_per_content():
    assert lemma_hash(DepthLemma(1)) != lemma_hash(DepthLemma(2))
    assert (lemma_hash(FrameLemma(cube=((2, True),), level=1))
            != lemma_hash(FrameLemma(cube=((2, True),), level=2)))


def test_model_fingerprint_distinguishes_models_and_is_stable():
    ring_a, ring_b = _ring(), _ring()
    assert model_fingerprint(ring_a) == model_fingerprint(ring_b)
    other = get_instance("arb03").build()
    assert model_fingerprint(other) != model_fingerprint(ring_a)
