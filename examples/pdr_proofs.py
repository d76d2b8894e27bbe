#!/usr/bin/env python3
"""IC3/PDR from the inside: frames, obligations and generalization, live.

The example walks the PDR machinery on a mod-3 counter whose bad state
(count 3) is unreachable, narrating what the engine does silently:

1. build a :class:`~repro.pdr.frames.FrameSequence` — ONE persistent
   solver holding one copy of the transition relation, with one
   activation-literal clause group per frame;
2. find the bad state in the top frame and check its proof obligation:
   relative to F_0 = S0 the bad cube has no predecessor, and the
   failed-assumption core already shrinks it;
3. generalize the blocked cube by literal dropping — one clause now
   excludes a whole region of the state space;
4. watch that clause *refuse* to push (a reachable state steps into it):
   over-approximation is allowed near S0 but cannot travel forward;
5. discharge the bad state again one frame up, where generalization now
   keeps both literals — blocked clauses never exclude reachable states
   from frames that must contain them;
6. push clauses until a frame drains into its successor and verify the
   three conditions that make F_j an inductive invariant;
7. rerun the circuit through the packaged engine and show the
   call-counter identity proving the whole run lived on one solver.

Run with:  python examples/pdr_proofs.py
"""

from repro.circuits import modular_counter
from repro.core import EngineOptions, PdrEngine
from repro.pdr import FrameSequence, generalize


def cube_str(model, cube):
    bits = {var: f"{'' if value else '!'}b{i}"
            for i, var in enumerate(model.latch_vars)
            for v, value in cube.items() if v == var}
    return " & ".join(bits[var] for var in sorted(bits)) or "true"


def states_in(model, cube):
    """Enumerate the counter values a latch cube contains."""
    values = []
    for value in range(1 << len(model.latch_vars)):
        state = {var: bool((value >> i) & 1)
                 for i, var in enumerate(model.latch_vars)}
        if all(state[var] == want for var, want in cube.items()):
            values.append(value)
    return values


def main() -> None:
    model = modular_counter(width=2, modulus=3, target=3)
    print("model: mod-3 counter, reachable states {0,1,2}, bad state 3\n")

    # 1. The frame sequence: one solver, one transition copy, one
    #    activation group per frame level.
    frames = FrameSequence(model)
    frames.add_level()
    print(f"frames built: F_0 = S0, F_1 = top   (k = {frames.k})")
    print(f"solver so far: {frames.solver.stats.clauses_added} clauses, "
          f"{frames.solver.stats.solve_calls} solve calls")

    # 2. The bad state survives in F_1 = top; its obligation is blocked
    #    relative to F_0 (count 3 has no predecessor in {0}).
    state, inputs = frames.bad_state(1)
    print(f"\nbad state in F_1: count {states_in(model, state)[0]} "
          f"({cube_str(model, state)})")
    answer = frames.check_obligation(state, 1)
    assert answer[0] == "blocked"
    core = answer[1]
    print(f"obligation at level 1: blocked relative to F_0; "
          f"UNSAT core kept {cube_str(model, core)}")

    # 3. Generalization: drop literals while the cube stays blocked
    #    relative to F_0.  The bad cube shrinks to a single literal — the
    #    clause excludes counts {2, 3} from F_1, which is sound because
    #    F_1 only needs to contain the states reachable in <= 1 step {0, 1}.
    cube = generalize(frames, core, 1, budget=8)
    print(f"generalized cube: {cube_str(model, cube)} — excludes counts "
          f"{states_in(model, cube)} from F_1")
    frames.add_blocked_cube(cube, 1)

    # 4. Open F_2 and try to push.  The clause cannot move: state 1 (in
    #    F_1) steps to 2, which the cube contains — the coarse
    #    over-approximation near S0 is *not* inductive, so propagation
    #    correctly refuses to carry it forward.
    frames.add_level()
    assert frames.propagate() is None
    print(f"\npropagate(): no fixpoint — {cube_str(model, cube)} stays at "
          f"level 1 (1 -> 2 steps into it), and F_2 still contains count 3")

    # 5. Discharge the bad state in F_2.  Relative to F_1 the obligation
    #    is again blocked, but now generalization keeps BOTH literals:
    #    dropping either would exclude a state that F_2 must contain
    #    (count 1 or count 2), and the relative-induction query says so.
    state, _ = frames.bad_state(2)
    answer = frames.check_obligation(state, 2)
    assert answer[0] == "blocked"
    cube2 = generalize(frames, answer[1], 2, budget=8)
    print(f"\nbad state in F_2 blocked; generalization keeps "
          f"{cube_str(model, cube2)} (only count "
          f"{states_in(model, cube2)} is excluded — 1 and 2 are reachable)")
    frames.add_blocked_cube(cube2, 2)

    # 6. One more frame: the exact clause !(count=3) IS inductive (3 has
    #    no predecessor at all), so it pushes, level 2 drains, and
    #    F_2 = F_3 is the fixpoint.  frame_is_inductive re-checks the
    #    three certificate conditions with independent queries.
    frames.add_level()
    answer = frames.check_obligation(cube2, 3)
    assert answer[0] == "blocked"
    frames.add_blocked_cube(cube2, 3)
    fixpoint = frames.propagate()
    print(f"\npropagate(): fixpoint at level {fixpoint} "
          f"(clauses pushed so far: {frames.clauses_pushed})")
    assert fixpoint is not None
    assert frames.frame_is_inductive(fixpoint)
    invariant = [cube_str(model, c.as_dict())
                 for c in frames.frame_cubes(fixpoint)]
    print(f"inductive invariant: NOT({' | '.join(invariant)})  "
          f"[S0 => F, F & !p UNSAT, F & T => F']")
    print(f"one solver did everything: "
          f"{frames.solver.stats.solve_calls} solve calls, "
          f"{frames.solver.stats.clauses_added} clauses total")

    # 7. The packaged engine runs the same loop behind the standard
    #    VerificationResult contract — still on a single solver.
    engine = PdrEngine(modular_counter(width=2, modulus=3, target=3),
                       EngineOptions(max_bound=10))
    result = engine.run()
    print(f"\nPdrEngine: {result}")
    print(f"engine sat_calls = {engine.stats.sat_calls}, "
          f"frame solver solve_calls = {engine.frames.solver.stats.solve_calls}"
          f"  (equal: one persistent solver, no per-bound rebuilds)")
    assert engine.stats.sat_calls == engine.frames.solver.stats.solve_calls


if __name__ == "__main__":
    main()
