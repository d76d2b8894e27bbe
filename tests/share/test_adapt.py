"""Import-side lemma validation: honest lemmas pass, malicious ones fail."""

from repro.circuits import get_instance, token_ring
from repro.share.adapt import ImportValidator
from repro.share.lemma import DepthLemma, FrameLemma


def _validator(model):
    validator = ImportValidator(model)
    validator.prepare()
    return validator


def test_depth_lemma_honest_accepted_malicious_rejected():
    # red_dead08bug is a free-running counter that reaches its target at
    # depth 5 under *any* stimulus, so simulation refutes bad depth claims
    # deterministically.
    model = get_instance("red_dead08bug").build()
    validator = _validator(model)
    assert validator.reject_reason(DepthLemma(depth=4)) is None
    reason = validator.reject_reason(DepthLemma(depth=10))
    assert reason is not None and "bad state" in reason
    assert validator.reject_reason(DepthLemma(depth=-1)) is not None


def test_frame_lemma_checks():
    model = token_ring(4)
    validator = _validator(model)
    latches = model.latch_vars
    init = model.initial_cube().as_dict()

    # Initiation: a cube consistent with S0 is rejected outright.
    var = latches[0]
    init_value = init.get(var, False)
    assert "initial" in validator.reject_reason(
        FrameLemma(cube=((var, init_value),), level=3))

    # A reachable cube is refuted by simulation: the token reaches every
    # ring position, so "position 1 never holds the token" is false.
    reachable = FrameLemma(cube=((latches[1], True),), level=8)
    reason = validator.reject_reason(reachable)
    assert reason is not None and "reachable" in reason

    # Syntax: non-latch variables, duplicates, empty cubes.
    assert validator.reject_reason(FrameLemma(cube=(), level=1)) is not None
    assert validator.reject_reason(
        FrameLemma(cube=((99999, True),), level=1)) is not None
    assert validator.reject_reason(
        FrameLemma(cube=((var, True), (var, False)), level=1)) is not None
    assert validator.reject_reason(
        FrameLemma(cube=((var, not init_value),), level=-1)) is not None

    # An honest unreachable cube passes: two tokens at once never happens.
    two_tokens = FrameLemma(
        cube=((latches[1], True), (latches[2], True)), level=6)
    assert validator.reject_reason(two_tokens) is None


def test_validation_is_deterministic():
    model = get_instance("red_dead08bug").build()
    first = _validator(model).reject_reason(DepthLemma(depth=10))
    second = _validator(model).reject_reason(DepthLemma(depth=10))
    assert first == second
