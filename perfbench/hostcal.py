"""Host-speed calibration: a fixed reference kernel timed between ops.

The kernel is deliberately independent of ``repro``: it mixes an
interpreter-bound loop (tuple building, integer arithmetic, dict
updates -- the shape of test-set generation and fault enumeration) with
passes over ~100 KB numpy arrays (the shape of the bit-packed
simulator's block sweeps).  The loop takes about a quarter of the
kernel's time: at that mix the kernel's drift tracks the workloads'
drift one to one (see README.md).  Its median time over a run,
``R_run``, tracks how fast
the host is running; timings are scaled by ``R0`` over the kernel time
measured around them, so that host drift cancels while units stay ms
and s.

A workload that persists to disk also runs an I/O kernel: one directory
of five small atomic replace-writes, removed again -- the job store's
write pattern in plain ``os`` calls.  The disk's speed drifts apart from
the CPU's (it slows under a run's own file churn), so such a workload
is scaled by a blend of both kernels, weighted by the op's I/O share.
"""

from __future__ import annotations

import os
from pathlib import Path
import shutil
import time

import numpy as np

#: Median kernel time (seconds) on the reference host: a 2-CPU VM,
#: Python 3.11, numpy 2.x.  A constant, not a knob: changing it rescales
#: every normalised timing, so it is fixed when the benchmark is defined
#: and never tuned afterwards.
R0 = 0.0022
#: Median I/O-kernel time (seconds) on the reference host, same terms.
R0_IO = 0.0010

_WORDS = 12_800  # 12,800 uint64 = 100 KB per array
_LOOP = 250  # ~0.55 ms on the reference host
_PASSES = 90  # ~1.6 ms
_IO_PAYLOAD = b"x" * 2048
_IO_FILES = ("request", "status", "result", "trace", "status")


class HostCalibration:
    """Times the reference kernels and keeps every sample of one run.

    Parameters
    ----------
    io_dir : Path, optional
        A scratch directory on the disk the workload writes to; when
        given, every sample also times the I/O kernel there.
    """

    def __init__(self, io_dir: Path | None = None):
        rng = np.random.default_rng(12345)
        self._a = rng.integers(0, 2**63, _WORDS, dtype=np.uint64)
        self._b = rng.integers(0, 2**63, _WORDS, dtype=np.uint64)
        self._out = np.empty_like(self._a)
        self.samples: list[float] = []
        self.io_dir = io_dir
        self.io_samples: list[float] = []

    def _kernel(self) -> int:
        acc: dict[int, int] = {}
        for i in range(_LOOP):
            word = tuple((i >> bit) & 1 for bit in range(6))
            key = sum(word)
            acc[key] = acc.get(key, 0) + i
        a, b, out = self._a, self._b, self._out
        for _ in range(_PASSES):
            np.bitwise_and(a, b, out=out)
            np.bitwise_or(out, a, out=out)
            np.bitwise_xor(out, b, out=out)
            np.right_shift(out, 1, out=out)
        return len(acc) + int(np.count_nonzero(out))

    def _io_kernel(self) -> None:
        job = self.io_dir / "job"
        job.mkdir()
        for name in _IO_FILES:
            path = job / f"{name}.json"
            tmp = path.with_name(path.name + ".tmp")
            tmp.write_bytes(_IO_PAYLOAD)
            os.replace(tmp, path)
        shutil.rmtree(job)

    def sample(self) -> None:
        """Run the kernel(s) once and record their wall-clock seconds."""
        start = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - start)
        if self.io_dir is not None:
            start = time.perf_counter()
            self._io_kernel()
            self.io_samples.append(time.perf_counter() - start)

    def ref_seconds(self) -> float:
        """``R_run``: the median kernel time of this run."""
        return float(np.median(self.samples))

    def scale(self) -> float:
        """``R0 / R_run``: the run-wide factor, reported as ``host.scale``."""
        return R0 / self.ref_seconds()

    def io_ref_seconds(self) -> float:
        """The median I/O-kernel time of this run (0.0 without one)."""
        return float(np.median(self.io_samples)) if self.io_samples else 0.0

    def local_scale(
        self, start: int, stop: int, io_share: float = 0.0
    ) -> float:
        """The factor for a timing taken between samples ``start:stop``.

        ``R0`` over the median of those samples -- blended with the I/O
        kernel's ``R0_IO`` ratio by ``io_share``, the share of the timed
        work that is disk I/O on the reference host, when it is not 0.
        Timings are normalised by the kernel samples taken right around
        them rather than by the run-wide median: the host switches speed
        on a scale of seconds, so one run can mix fast and slow phases.
        """
        start = max(0, start)
        slowdown = float(np.median(self.samples[start:stop])) / R0
        if io_share:
            io = float(np.median(self.io_samples[start:stop])) / R0_IO
            slowdown = (1 - io_share) * slowdown + io_share * io
        return 1 / slowdown
