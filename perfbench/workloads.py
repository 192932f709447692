"""The four benchmark workloads, each a closed loop with one client.

Every workload drives the public API from the outside and follows the
same protocol (see ``run.py``):

``setup()``
    Import ``repro``, build the base network and Session (or start the
    server), and run one untimed warm-up op, kept as ``warm``.
    ``run.py`` times this in fresh child processes to report
    ``setup_s``, and compares the warm-up op's counters across them.
``next_input(i)``
    The i-th generated input, drawn from the seeded generator outside
    the timed region.  The sequence depends only on the seed.
``op(inp, trace)``
    The timed op.  With a :class:`repro.observe.Trace` it records one
    span per public call and adopts the Session's own span tree.
``check(inp, out, reference)``
    Cheap invariants on every op; with ``reference`` also the full
    comparison against an independent computation.
``counts(inp, out)`` / ``gauges()``
    Exact counters of one op of the first ``sample_ops`` and gauges at
    the end of them, for the per-layer ledger and the determinism
    fingerprint.
``io_weight(inp, out)``
    The share of the op that is disk I/O, the weight of the I/O
    calibration kernel in its normalisation.
``extras(inp, out)``
    Traced runs only: single-layer timings replayed on the op's own data
    (packing, request decoding, serialisation, job-store writes), in
    seconds, measured outside the op's timed interval.

Nothing here imports ``repro`` at module level, so a setup probe times
the package import itself.
"""

from __future__ import annotations

from contextlib import nullcontext
import hashlib
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

import numpy as np

#: Span names recorded by the benchmark or adopted from the Session,
#: mapped to the per-layer time metric they feed.
SPAN_LAYERS = {
    "testsets.gen": "testsets.gen_ms",
    "faults.injection.enum": "faults.injection.enum_ms",
    "simulate": "faults.simulation.sim_ms",
    "matrix": "faults.simulation.sim_ms",
    "dictionary": "faults.diagnosis.dictionary_ms",
    "resolution": "faults.diagnosis.dictionary_ms",
    "adaptive_order": "faults.diagnosis.order_ms",
    "sorter": "properties.verify_ms",
    "api.serialize.from_json": "api.serialize.from_json_ms",
}

#: The simulation counters summed into the fingerprint.
SIM_COUNTERS = (
    "faults", "converged_faults", "dropped_faults",
    "evaluated_stage_blocks", "pruned_stage_blocks",
)


class CheckFailed(Exception):
    """An op returned a result that disagrees with its check."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _span(trace, name: str):
    """A benchmark span when tracing, else a no-op context."""
    return trace.span(name) if trace is not None else nullcontext()


def _adopt(span, result) -> None:
    """Graft a result's own span tree (``ExecutionInfo.trace``) under *span*."""
    inner = result.execution.trace
    if span is not None and inner is not None:
        span.children.extend(inner.roots)


def _session_call(trace, name: str, method, *args, **kwargs):
    """Call a Session method inside a benchmark span that adopts its trace."""
    with _span(trace, name) as span:
        result = method(*args, **kwargs)
    _adopt(span, result)
    return result


def _sim_counts(stats) -> dict[str, float]:
    counts = {name: getattr(stats, name) for name in SIM_COUNTERS}
    return {f"sim.{name}": value for name, value in counts.items()}


def _cache_counts(stats) -> dict[str, int]:
    """A per-call ``CacheStats`` delta, minus its two absolute gauges."""
    return {
        f"cache.{name}": value for name, value in stats.as_dict().items()
        if name not in ("stored_bytes", "entries")
    }


def _pack_seconds(words, n_lines: int) -> float:
    """``words_to_array`` + ``pack_batch`` on one op's test vectors."""
    from repro.core.bitpacked import pack_batch
    from repro.core.evaluation import words_to_array

    start = time.perf_counter()
    pack_batch(words_to_array(words), n_lines=n_lines)
    return time.perf_counter() - start


def _coverage_fields(report) -> tuple:
    return (
        report.total_faults, report.detected_faults, report.coverage,
        dict(report.by_kind), report.vectors_used,
    )


class Workload:
    """The protocol's defaults and the seeded input generator."""

    name = ""
    #: One line for ``BENCHMARK.json``: why the workload exists.
    why = ""
    #: Leaf layers (per-layer time metrics) that together should explain
    #: an op's wall-clock (``trace.coverage``).
    partition: tuple[str, ...] = ()
    #: Latency percentiles are taken over the largest multiple of this
    #: many untraced ops (a workload that cycles through a fixed input
    #: population sets it to the population size).
    cycle = 1
    #: The exact-count sample: per-layer counts and the determinism
    #: fingerprint are taken over the first this many ops, so they do not
    #: depend on how many ops the host managed in the time given.  Every
    #: run completes at least this many.
    sample_ops = 100
    #: Share of an op that writes to disk that is disk I/O on the
    #: reference host: the weight of the I/O calibration kernel
    #: (``hostcal.py``).  0 runs no I/O kernel.
    io_share = 0.0
    #: Per-layer time metrics that are pure disk I/O: the ledger scales
    #: them by the I/O kernel alone.
    io_layers: tuple[str, ...] = ()
    #: Counts that legitimately vary run to run (kept out of the
    #: fingerprint): sizes of payloads that embed measured timings.
    inexact: tuple[str, ...] = ()

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.root = root
        self.rng = np.random.default_rng([seed, 0])

    def setup(self) -> None:
        raise NotImplementedError

    def _warm_up(self, inp: Any) -> None:
        """Run the untimed warm-up op and keep it (``warm``)."""
        self.warm = (inp, self.op(inp, None))

    def close(self) -> None:
        """Release what :meth:`setup` started (nothing by default)."""

    def gauges(self) -> dict[str, float]:
        """End-of-sample gauges (none by default)."""
        return {}

    def io_weight(self, inp: Any, out: Any) -> float:
        """The I/O kernel's weight for this op (``io_share`` by default)."""
        return self.io_share

    def extras(self, inp: Any, out: Any) -> dict[str, float]:
        """Replayed single-layer timings (none by default)."""
        return {}

    def child_peak_rss_kb(self) -> int:
        """Peak RSS of a reaped helper process (none by default)."""
        return 0


class Thm22Coverage(Workload):
    """Theorem 2.2 test set at n=12 applied to single faults of a mutant."""

    name = "thm22_coverage"
    why = (
        "the faults CLI path on the paper's Theorem 2.2 test set: test-set "
        "generation, vector packing and the any-reduction simulator"
    )
    partition = (
        "testsets.gen_ms", "faults.injection.enum_ms",
        "faults.simulation.sim_ms",
    )
    N = 12

    def setup(self) -> None:
        from repro.api import Session
        from repro.constructions import batcher_sorting_network

        self.base = batcher_sorting_network(self.N)
        self.session = Session(engine="bitpacked")
        self._warm_up(self._mutant(np.random.default_rng([self.seed, 1])))

    def _mutant(self, rng):
        from repro.core.random_networks import random_sorter_mutation

        return random_sorter_mutation(self.base, rng)

    def next_input(self, i: int):
        return self._mutant(self.rng)

    def op(self, network, trace):
        from repro.faults import enumerate_single_faults
        from repro.testsets import sorting_binary_test_set

        with _span(trace, "testsets.gen"):
            words = sorting_binary_test_set(self.N)
        with _span(trace, "faults.injection.enum"):
            faults = enumerate_single_faults(network)
        report = _session_call(
            trace, "api.session", self.session.fault_coverage,
            network, faults, words,
        )
        return words, faults, report

    def check(self, network, out, reference: bool) -> None:
        from repro.api import Session

        words, faults, report = out
        _require(
            len(words) == 2**self.N - self.N - 1,
            f"test set has {len(words)} words, expected 2^n - n - 1",
        )
        _require(report.total_faults == len(faults), "fault count mismatch")
        if reference:
            expected = Session(engine="vectorized").fault_coverage(
                network, faults, words
            )
            _require(
                _coverage_fields(report) == _coverage_fields(expected),
                "bitpacked coverage differs from the vectorized engine",
            )

    def counts(self, network, out) -> dict[str, float]:
        words, faults, report = out
        return {
            "words": len(words), "faults": len(faults),
            "subsets": len(faults), **_sim_counts(report.stats),
        }

    def extras(self, network, out) -> dict[str, float]:
        return {"core.pack_ms": _pack_seconds(out[0], self.N)}


class DiagnoseK2(Workload):
    """Double-fault diagnosis of a batcher(5) mutant with the 26-word set."""

    name = "diagnose_k2"
    why = (
        "k=2 multi-fault enumeration and diagnosis, dominated by the greedy "
        "adaptive order; loads faults.injection and faults.diagnosis"
    )
    partition = (
        "faults.injection.enum_ms", "faults.simulation.sim_ms",
        "faults.diagnosis.dictionary_ms", "faults.diagnosis.order_ms",
    )
    N = 5

    def setup(self) -> None:
        from repro.api import Session
        from repro.constructions import batcher_sorting_network
        from repro.testsets import sorting_binary_test_set

        self.base = batcher_sorting_network(self.N)
        self.words = sorting_binary_test_set(self.N)
        self.mutants = self._neighbourhood()
        self.cycle = len(self.mutants)
        self.session = Session(engine="bitpacked")
        self._warm_up(self.mutants[self.seed % self.cycle])

    def _neighbourhood(self) -> list:
        """The base and every distinct single mutation of it.

        A mutation deletes, reverses or rewires one comparator; batcher(5)
        has 99 distinct ones, so with the base the population is 100.
        Ops walk seeded shuffles of the whole population and latency is
        taken over whole passes (``cycle``), so every run measures the
        same population and the seed only sets the order.  Universe sizes
        range from 260 to 445 composites with a gap just above the
        median, so a partial pass would move p50 by several per cent.
        """
        from repro.core.random_networks import all_standard_comparators

        base = self.base
        mutants = {base: None}
        for index, comparator in enumerate(base.comparators):
            variants = [
                base.without_comparator(index),
                base.with_comparator_replaced(index, comparator.flipped()),
            ]
            variants += [
                base.with_comparator_replaced(index, other)
                for other in all_standard_comparators(self.N)
            ]
            for variant in variants:
                mutants.setdefault(variant, None)
        return list(mutants)

    def next_input(self, i: int):
        position = i % self.cycle
        if position == 0:
            self._order = self.rng.permutation(self.cycle)
        return self.mutants[self._order[position]]

    def op(self, network, trace):
        from repro.faults import enumerate_multi_faults

        with _span(trace, "faults.injection.enum"):
            faults = enumerate_multi_faults(network, k=2)
        result = _session_call(
            trace, "api.session", self.session.diagnose,
            network, faults, self.words,
        )
        return faults, result

    def check(self, network, out, reference: bool) -> None:
        from repro.api import Session

        faults, result = out
        sizes = sum(len(c) for c in result.dictionary.classes)
        _require(sizes == len(faults), "diagnosis classes do not partition")
        _require(
            len(set(result.test_order)) == len(result.test_order)
            and all(0 <= t < len(self.words) for t in result.test_order),
            "adaptive order is not a set of vector indices",
        )
        if reference:
            expected = Session(engine="vectorized").diagnose(
                network, faults, self.words
            )
            _require(
                result.dictionary.classes == expected.dictionary.classes
                and result.test_order == expected.test_order,
                "bitpacked diagnosis differs from the vectorized engine",
            )

    def counts(self, network, out) -> dict[str, float]:
        from repro.faults import enumerate_single_faults

        faults, result = out
        singles = len(enumerate_single_faults(network))
        return {
            "words": 0, "faults": len(faults),
            "subsets": math.comb(singles, 2),
            "classes": result.dictionary.num_classes,
            **_sim_counts(result.stats),
        }

    def extras(self, network, out) -> dict[str, float]:
        return {"core.pack_ms": _pack_seconds(self.words, self.N)}


class RetestCached(Workload):
    """Re-verification of rewired batcher(16) variants on a warm cache."""

    name = "retest_cached"
    why = (
        "incremental re-verification on a Session's warm result cache past "
        "its byte budget, where prefix partial hits do most of the work"
    )
    partition = (
        "faults.injection.enum_ms", "properties.verify_ms",
        "faults.simulation.sim_ms",
    )
    N = 16
    TAIL = 24

    def setup(self) -> None:
        from repro.api import Session
        from repro.constructions import batcher_sorting_network

        self.base = batcher_sorting_network(self.N)
        self.session = Session(engine="bitpacked", cache=True)
        self._warm_up(self._rewired(np.random.default_rng([self.seed, 1])))

    def _rewired(self, rng):
        from repro.core.random_networks import random_standard_comparator

        index = int(rng.integers(self.base.size - self.TAIL, self.base.size))
        comparator = random_standard_comparator(self.N, rng)
        return self.base.with_comparator_replaced(index, comparator)

    def next_input(self, i: int):
        return self._rewired(self.rng)

    def op(self, network, trace):
        from repro.faults import CubeVectors, enumerate_single_faults

        verdict = _session_call(
            trace, "api.session", self.session.verify,
            network, strategy="binary",
        )
        with _span(trace, "faults.injection.enum"):
            faults = enumerate_single_faults(network)
        report = _session_call(
            trace, "api.session", self.session.fault_coverage,
            network, faults, CubeVectors(self.N),
        )
        return faults, verdict, report

    def check(self, network, out, reference: bool) -> None:
        from repro.api import Session
        from repro.faults import CubeVectors

        faults, verdict, report = out
        _require(report.total_faults == len(faults), "fault count mismatch")
        if reference:
            cold = Session(engine="bitpacked")
            expected_verdict = cold.verify(network, strategy="binary")
            expected = cold.fault_coverage(
                network, faults, CubeVectors(self.N)
            )
            _require(
                verdict.verdict == expected_verdict.verdict
                and _coverage_fields(report) == _coverage_fields(expected)
                and report.stats == expected.stats,
                "warm-cache result differs from a cache-off Session",
            )

    def counts(self, network, out) -> dict[str, float]:
        faults, verdict, report = out
        counts = {
            "words": 0, "faults": len(faults), "subsets": len(faults),
            **_sim_counts(report.stats),
        }
        for execution in (verdict.execution, report.execution):
            for name, value in _cache_counts(execution.cache).items():
                counts[name] = counts.get(name, 0) + value
        return counts

    def gauges(self) -> dict[str, float]:
        stats = self.session.cache.stats()
        return {"cache.stored_bytes": stats.stored_bytes}


class ServeRoundtrip(Workload):
    """Submit-and-wait fault-coverage jobs to a ``repro.serve`` server."""

    name = "serve_roundtrip"
    why = (
        "submit-and-wait jobs to a repro.serve server, a quarter of them "
        "repeats; the only path through protocol, queue and job store"
    )
    partition = (
        "faults.simulation.sim_ms", "serve.protocol.request_ms",
        "api.serialize.to_json_ms", "serve.jobstore.write_ms",
        "api.serialize.from_json_ms",
    )
    inexact = ("result_bytes",)
    #: The share of a fresh job's round trip spent in job-store writes
    #: (``serve.jobstore.write_ms``), each part scaled to the reference
    #: host by its own kernel: the median over five 400-op runs (see
    #: README.md).  A replay writes nothing and takes weight 0.
    io_share = 0.075
    io_layers = ("serve.jobstore.write_ms",)
    N = 10
    #: Every REPEAT_EVERY-th submission repeats an earlier job.
    REPEAT_EVERY = 4
    #: The server's result-cache budget.  Each fresh job stores ~18 KB,
    #: so the default 64 MiB would still be filling when a run ends, and
    #: memory and hit rate would depend on how many ops the host managed;
    #: 4 MiB is full after ~230 fresh jobs (~310 ops), so every run
    #: measures a server whose cache is at its budget and evicting.
    CACHE_BYTES = 4 * 2**20
    #: Long enough that the counts cover the server evicting at its
    #: cache budget, not only the filling phase.
    sample_ops = 400

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__(seed, root)
        self.tmp: Path | None = None
        self.server: subprocess.Popen | None = None
        self.server_rusage = None
        self.client = None
        # Client-side state stays a few bytes per job, so peak RSS grows
        # with the server's state, not with the benchmark's.
        self._fresh = 0
        self._digests: dict[int, bytes] = {}
        self._stored_bytes = 0

    def setup(self) -> None:
        from repro.constructions import batcher_sorting_network
        from repro.serve import ServeClient

        self.base = batcher_sorting_network(self.N)
        work = self.root / ".perfbench_work"
        work.mkdir(exist_ok=True)
        # A relative socket path keeps it under the AF_UNIX length limit
        # however deep the checkout lives.
        self.tmp = Path(tempfile.mkdtemp(prefix="serve-", dir=work))
        relative = self.tmp.relative_to(self.root)
        self._log = open(self.tmp / "server.log", "wb")
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.server = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serve",
                "--socket", str(relative / "s.sock"),
                "--jobs", str(relative / "jobs"),
                "--pool", "1", "--engine", "bitpacked",
                "--cache-bytes", str(self.CACHE_BYTES),
            ],
            cwd=self.root, env=env,
            stdout=subprocess.DEVNULL, stderr=self._log,
        )
        deadline = time.monotonic() + 60.0
        while True:
            if self.server.poll() is not None:
                raise RuntimeError(
                    f"server exited with code {self.server.returncode}"
                )
            try:
                client = ServeClient(socket_path=str(relative / "s.sock"))
            except (FileNotFoundError, ConnectionRefusedError):
                if time.monotonic() > deadline:
                    raise RuntimeError("server did not become ready")
                time.sleep(0.005)
                continue
            self.client = client
            self.client.status()
            break
        warm_up = self._payload(np.random.default_rng([self.seed, 1]))
        self._warm_up((-1, warm_up))
        self.status_before = self.client.status()

    def close(self) -> None:
        """Shut the server down cleanly, reap it, remove its job dir.

        The server is reaped with ``os.wait4`` rather than ``Popen.wait``
        because only ``wait4`` returns the child's own resource usage
        (its peak RSS); ``Popen.poll`` would reap it and lose that.
        """
        from repro.exceptions import ServiceError

        try:
            if self.client is not None:
                try:
                    self.client.shutdown()
                except (OSError, ServiceError):
                    pass  # already gone; reaped below either way
                self.client.close()
            if self.server is not None and self.server.returncode is None:
                deadline = time.monotonic() + 20.0
                while True:
                    pid, status, usage = os.wait4(self.server.pid, os.WNOHANG)
                    if pid:
                        break
                    if time.monotonic() > deadline:
                        self.server.kill()
                        _, status, usage = os.wait4(self.server.pid, 0)
                        break
                    time.sleep(0.01)
                self.server.returncode = os.waitstatus_to_exitcode(status)
                self.server_rusage = usage
        finally:
            if self.server is not None and self.server.returncode is None:
                self.server.kill()
                self.server.wait()
            if self.tmp is not None:
                self._log.close()
                shutil.rmtree(self.tmp, ignore_errors=True)

    def child_peak_rss_kb(self) -> int:
        """The server's peak RSS, from ``os.wait4`` once it has exited."""
        return self.server_rusage.ru_maxrss if self.server_rusage else 0

    def _payload(self, rng) -> dict:
        from repro.core.random_networks import random_sorter_mutation
        from repro.core.serialization import network_to_dict

        network = random_sorter_mutation(self.base, rng, num_mutations=3)
        return {
            "kind": "fault-coverage",
            "network": network_to_dict(network),
            "vectors": {"cube": self.N},
            "faults": {"single": True},
        }

    def next_input(self, i: int):
        if i % self.REPEAT_EVERY == self.REPEAT_EVERY - 1:
            index = int(self.rng.integers(0, self._fresh))
        else:
            index, self._fresh = self._fresh, self._fresh + 1
        # Job k is regenerated from its own seed when it is repeated.
        rng = np.random.default_rng([self.seed, 3, index])
        return index, self._payload(rng)

    def op(self, inp, trace):
        index, payload = inp
        with _span(trace, "serve.roundtrip") as roundtrip:
            response = self.client.submit(payload, wait=True)
        with _span(trace, "api.serialize.from_json"):
            result = self.client.decode_result(response)
        if not response["deduped"]:
            # A fresh job's result carries the server Session's spans; a
            # replay carries the original job's, which this op did not run.
            _adopt(roundtrip, result)
        return response, result

    def _fresh_op(self, inp, out) -> bool:
        return not out[0]["deduped"]

    def io_weight(self, inp, out) -> float:
        return self.io_share if self._fresh_op(inp, out) else 0.0

    def check(self, inp, out, reference: bool) -> None:
        from repro.api import Session
        from repro.faults import CubeVectors, enumerate_single_faults
        from repro.serve.protocol import JobRequest

        index, payload = inp
        response, result = out
        _require(response["state"] == "done", f"job {response['state']}")
        text = response["result_json"]
        digest = hashlib.sha256(text.encode()).digest()
        first = self._digests.setdefault(index, digest)
        _require(first == digest, "a repeated job replayed a different result")
        if reference and self._fresh_op(inp, out):
            network = JobRequest.from_dict(payload).network()
            local = Session(engine="bitpacked").fault_coverage(
                network, enumerate_single_faults(network), CubeVectors(self.N)
            )
            served, expected = result.to_dict(), local.to_dict()
            served.pop("execution")
            expected.pop("execution")
            _require(served == expected, "served result differs in-process")

    def counts(self, inp, out) -> dict[str, float]:
        response, result = out
        fresh = self._fresh_op(inp, out)
        counts = {
            "words": 0, "fresh": int(fresh),
            "result_bytes": len(response["result_json"]) if fresh else 0,
        }
        if fresh:
            counts.update(_sim_counts(result.stats))
            counts.update(_cache_counts(result.execution.cache))
            self._stored_bytes = result.execution.cache.stored_bytes
        return counts

    def gauges(self) -> dict[str, float]:
        status = self.client.status()
        before = self.status_before["metrics"]
        metrics = status["metrics"]
        gauges = {
            f"serve.{name}": metrics[name] - before[name]
            for name in ("jobs_accepted", "jobs_deduped", "jobs_executed")
        }
        for name, value in status["simulation"].items():
            gauges[f"serve.sim.{name}"] = (
                value - self.status_before["simulation"][name]
            )
        gauges["cache.stored_bytes"] = self._stored_bytes
        return gauges

    def extras(self, inp, out) -> dict[str, float]:
        from repro.serve.jobstore import JobStore
        from repro.serve.protocol import JobRequest

        if not self._fresh_op(inp, out):
            return {}
        index, payload = inp
        response, result = out
        clock = time.perf_counter
        start = clock()
        request = JobRequest.from_dict(payload)
        key = request.content_key(("bitpacked", 1, None, True))
        request_s = clock() - start

        start = clock()
        text = result.to_json(indent=2)
        to_json_s = clock() - start

        store = JobStore(self.tmp / "scratch-store")
        trace_text = result.execution.trace.to_json()
        start = clock()
        job_id = store.create(request, key)
        store.write_status(job_id, "running")
        store.write_result_text(job_id, text)
        store.write_trace_text(job_id, trace_text)
        store.write_status(job_id, "done")
        write_s = clock() - start
        shutil.rmtree(store.job_dir(job_id))
        return {
            "serve.protocol.request_ms": request_s,
            "api.serialize.to_json_ms": to_json_s,
            "serve.jobstore.write_ms": write_s,
            # The server Session's own root span: the job's compute.
            "server_s": result.execution.seconds,
        }


WORKLOADS = {
    cls.name: cls
    for cls in (Thm22Coverage, DiagnoseK2, ServeRoundtrip, RetestCached)
}
