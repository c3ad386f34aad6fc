"""CPU time of the benchmark's thread, scaled to a host of fixed speed.

A shared virtual machine runs the same code at a speed that follows the
host's load: on a 2-vCPU guest, the census's maps per second of thread
time spread by 20 % and 31 % (IQR/median) in two sets of five runs. So,
while a Clock runs, a profiling timer interrupts every SAMPLE_EVERY_S
seconds of process CPU time and times a fixed pure-Python reference loop,
which exercises the interpreter and the host but no quadlie code. now() is
the thread's CPU time without the time spent in those samples. A speed
turns CPU seconds into nominal seconds, the seconds they would have taken
on a host where the reference loop takes REF_NOMINAL_S; it is judged by the
median of a stretch of samples: factor() takes those since its previous
call, speed() any slice of them. A change to quadlie moves the nominal times
as it moves the CPU times; a change of host speed moves them much less
(in the same two sets, 5 % and 4 %).
"""

import signal
import statistics
import time

REF_LOOP = 10_000  # iterations of the reference loop, about 1 ms
REF_NOMINAL_S = 0.001  # its nominal time
SAMPLE_EVERY_S = 0.05  # CPU seconds between samples
MIN_SAMPLES = 5  # per factor(); taken directly when the timer gave fewer
OWN_SAMPLES = 10  # an operation with this many of its own is scaled by them


class Clock:
    def __init__(self):
        self.samples = []
        self.stolen = 0.0  # CPU seconds spent sampling
        self.speeds = []  # host speed per factor(): REF_NOMINAL_S / median sample

    def sample(self, *_):
        t0 = time.thread_time()
        s = 0
        for i in range(REF_LOOP):
            s += i * i % 7
        dt = time.thread_time() - t0
        self.samples.append(dt)
        self.stolen += dt

    def now(self):
        return time.thread_time() - self.stolen

    def speed(self, samples):
        return REF_NOMINAL_S / statistics.median(samples)

    def factor(self):
        """Host speed over the samples since the last call; starts afresh."""
        while len(self.samples) < MIN_SAMPLES:
            self.sample()
        speed = self.speed(self.samples)
        self.samples = []
        self.speeds.append(speed)
        return speed

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
