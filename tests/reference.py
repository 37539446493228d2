"""The tests' per-step reference executor and program inversion."""

from walkqec import engine
from walkqec.engine import CoinSpec
from walkqec.programs import (Branch, Coin, InjectionPoint, Neighbor, Shift, WalkProgram,
                              _Policy)


def interpret_program(state, program, **policy) -> list:
    """Per-step reference executor with ``run_program``'s keywords.

    Runs each step through its own engine operation on the input's full
    layout, never a slice; ``run_program`` is compared against it.
    """
    run = _Policy(**policy)
    branches = [Branch(state.copy())]
    for step in program.steps:
        if isinstance(step, Coin):
            for br in branches:
                br.state = engine.apply_coin(br.state, step.spec)
        elif isinstance(step, Shift):
            for br in branches:
                br.state = engine.apply_shift(br.state)
        elif isinstance(step, Neighbor):
            for br in branches:
                br.state = engine.apply_neighbor(br.state)
        else:
            branches = run.barrier(step, branches)
    return branches


def inverted(program: WalkProgram) -> WalkProgram:
    """Reversed conjugate of a measurement-free program.

    Shifts invert as three forward shifts; Neighbor is its own inverse;
    coin entries are conjugate-transposed.
    """
    if program.has_measurements:
        raise ValueError("only measurement-free programs invert")
    steps: list = []
    for step in reversed(program.steps):
        if isinstance(step, Shift):
            steps.extend([Shift(), Shift(), Shift()])
        elif isinstance(step, Neighbor):
            steps.append(Neighbor())
        elif isinstance(step, Coin):
            steps.append(Coin(CoinSpec({(p, engine.LABEL_OF_V[v]): u.conj().T
                                        for (p, v), u in step.spec.entries.items()})))
        elif isinstance(step, InjectionPoint):
            steps.append(step)
        else:
            raise TypeError(f"cannot invert step {step!r}")
    return WalkProgram(f"{program.name}^-1", tuple(steps))
