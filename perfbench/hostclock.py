"""Host measurements: a speed reference, and a process's own peak memory.

On a shared 2-vCPU host the speed of pure-Python code drifts by 10-20%
over tens of seconds, and back-to-back runs of identical cases differed by
as much.  A fixed integer loop, timed in short slices between the cases of
a run, follows that drift closely (correlation about 0.9 over 3 s windows).
The benchmark therefore states its times on a reference clock: a duration
measured while the loop takes r seconds is scaled by REF_NOMINAL_S / r, that
is, to what it would have been on a host where the loop takes exactly
REF_NOMINAL_S.  The loop touches no lhall code, so a change to the program
cannot change the clock.
"""

from time import perf_counter

REF_LOOPS = 50_000
REF_NOMINAL_S = 0.005
REF_REPEATS = 3


def reference_seconds():
    """Median time of REF_REPEATS runs of the reference loop."""
    runs = []
    for _ in range(REF_REPEATS):
        t0 = perf_counter()
        acc = 0
        for i in range(REF_LOOPS):
            acc = (acc + i * 7) & 1023
        runs.append(perf_counter() - t0)
    return sorted(runs)[REF_REPEATS // 2]


def scale(seconds, ref_seconds):
    """A duration on the reference clock, given the loop time around it."""
    return seconds * REF_NOMINAL_S / ref_seconds


def scale_cases(times, refs):
    """Case times on the reference clock.

    refs holds (index of the next case, loop time) samples taken between
    cases, the first before case 0 and the last after the final case; a case
    is scaled by the mean of the samples on either side of it.
    """
    out = []
    for (start, before), (end, after) in zip(refs, refs[1:]):
        ref = (before + after) / 2
        out.extend(scale(t, ref) for t in times[start:end])
    return out


def peak_rss_mb():
    """This process's peak resident set size since its exec, in MB (Linux).

    A child's ru_maxrss is no use here: Linux folds the peak of the memory
    image that exec replaces into it, so a child of a large parent reads
    the parent's peak.  VmHWM belongs to the new image alone.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise OSError("no VmHWM line in /proc/self/status")
