"""The tests' per-step reference executor, program inversion, and the
measure-reset written out as a complex division and a swap."""

import numpy as np

from walkqec import engine
from walkqec.engine import CoinSpec
from walkqec.programs import Branch, Coin, MeasureCoin, Neighbor, Shift, WalkProgram, _Policy


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
        elif isinstance(step, MeasureCoin):
            branches = run.measure(step, branches)
        else:
            raise TypeError(f"unknown step {step!r}")
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
        else:
            raise TypeError(f"cannot invert step {step!r}")
    return WalkProgram(f"{program.name}^-1", tuple(steps))


def collapse_reference(state, particle, bit, prob):
    """The collapse as a complex division of the kept coin half."""
    want = np.zeros_like(state.amps)
    np.divide(state.coin_view(particle)[:, bit], np.sqrt(prob),
              out=want.reshape(state.coin_view(particle).shape)[:, bit])
    return want


def swap_reference(state, particle):
    """Coin X as an explicit swap of the two coin halves."""
    view = state.coin_view(particle)
    return np.stack([view[:, 1], view[:, 0]], axis=1).reshape(-1)


def reset_reference(state, particle, bit, prob):
    """``measure_coin``'s result: the collapse, then, after outcome 1, the
    two coin halves swapped, which resets the coin to 0."""
    want = collapse_reference(state, particle, bit, prob)
    return swap_reference(engine.StateVector(state.layout, want), particle) if bit else want
