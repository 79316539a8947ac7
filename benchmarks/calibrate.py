"""A fixed reference loop that measures how fast this machine runs right now.

Shared virtual machines change speed with the load of other tenants: the
2-core VM the baseline was recorded on swung by up to 1.7x over seconds
to minutes, which moves wall-clock medians by more than any bound a
regression gate could use.  The loop below does not depend on simflow;
timing it next to each measured call gives the machine's momentary
speed, and ``scaled`` turns a wall time into seconds at the loop's
nominal speed.

The loop has two halves because the workloads do two kinds of work and
the machine's slow phases do not slow both alike: interpreted Python
(the rule interpreter, text formatting) and numpy arithmetic on arrays
about the size of a padded 256x256 grid field.  Measured over 20-second
windows, scaling by the Python half alone left 12% spread on
wave-stencil and by the numpy half alone 11% on flocking; the sum leaves
about 7% on both.
"""

import time

# Wall time of reference_loop() on the machine the baseline was recorded
# on, in its fast phase.  Any constant would do: only ratios matter.
NOMINAL_S = 0.032

_STENCIL_OFFSETS = (-2, -1, 0, 1, 2)


def reference_loop():
    """Seconds taken by a fixed pure-Python loop plus a fixed numpy loop."""
    import numpy as np   # here, so that importing this module leaves numpy unloaded

    t0 = time.perf_counter()
    total = 0
    table = {}
    for i in range(100_000):
        total += i * i % 7
        table[i & 1023] = total
    field = np.linspace(0.0, 1.0, 262 * 262).reshape(262, 262)
    for _ in range(20):
        acc = None
        for off in _STENCIL_OFFSETS:
            term = 0.5 * field[:, 2 + off:260 + off]
            acc = term if acc is None else acc + term
    return time.perf_counter() - t0


def scaled(wall_s, loop_before_s, loop_after_s):
    """``wall_s`` expressed at the loop's nominal speed."""
    return wall_s * NOMINAL_S / (0.5 * (loop_before_s + loop_after_s))
