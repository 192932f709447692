"""The repository benchmark: end-to-end metrics and a per-layer ledger.

Run from the repository root::

    python3 perfbench/run.py --workload thm22_coverage --seed 1 \\
        --seconds 20 --trace 0

One run times the workload's set-up in fresh child processes
(``setup_s``), then drives a closed loop with one client for
``--seconds`` (and at least ``MIN_OPS`` ops), running the host
calibration kernel after every op.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced ops and
reports the per-layer ledger.  Every op is checked; in a traced run a
seeded sample is also compared against an independent computation.  The
last stdout line is the JSON result; the line before it carries the raw
(unnormalised) figures and the determinism fingerprint.

``python3 perfbench/run.py --manifest`` rewrites ``BENCHMARK.json`` from
the tables below.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
from pathlib import Path
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback

#: Process start, so a set-up probe's time includes every import.
_STARTED = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: Every run times at least this many ops, so p90 has >= 10 samples above it.
MIN_OPS = 100
#: Fresh child processes timed for ``setup_s`` (median reported).
SETUP_TRIALS = 5
#: Kernel samples on each side of an op that normalise its time.
WINDOW = 3
#: Share of a traced run's ops whose result is also compared against an
#: independent computation.
REFERENCE_SHARE = 1 / 8
#: ``trace.coverage`` below this flags the workload's span ledger.
COVERAGE_FLOOR = 0.90
#: ``--seconds`` of one run in ``BENCHMARK.json``.
RUN_SECONDS = 20

#: name -> (unit, better, bound): bound is the share of the baseline
#: median by which the metric may worsen before a change is rejected.
END_TO_END = {
    "ops_per_s": ("1/s", "higher", 0.25),
    "latency_p50_ms": ("ms", "lower", 0.20),
    "latency_p90_ms": ("ms", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.15),
}

#: name -> (unit, better).
PER_LAYER = {
    "testsets.gen_ms": ("ms", "lower"),
    "testsets.words": ("count", "lower"),
    "core.pack_ms": ("ms", "lower"),
    "faults.injection.enum_ms": ("ms", "lower"),
    "faults.injection.faults": ("count", "lower"),
    "faults.injection.kept_share": ("ratio", "lower"),
    "faults.simulation.sim_ms": ("ms", "lower"),
    "faults.simulation.evaluated_stage_blocks": ("count", "lower"),
    "faults.simulation.prune_ratio": ("ratio", "higher"),
    "faults.simulation.dropped_faults": ("count", "higher"),
    "faults.diagnosis.dictionary_ms": ("ms", "lower"),
    "faults.diagnosis.order_ms": ("ms", "lower"),
    "faults.diagnosis.classes": ("count", "higher"),
    "properties.verify_ms": ("ms", "lower"),
    "cache.prefix_partial_hits": ("count", "higher"),
    "cache.reused_comparators": ("count", "higher"),
    "cache.verdict_hit_share": ("ratio", "higher"),
    "cache.evictions": ("count", "lower"),
    "cache.stored_mb": ("MB", "lower"),
    "api.serialize.to_json_ms": ("ms", "lower"),
    "api.serialize.from_json_ms": ("ms", "lower"),
    "api.serialize.result_kb": ("KB", "lower"),
    "serve.protocol.request_ms": ("ms", "lower"),
    "serve.jobstore.write_ms": ("ms", "lower"),
    "serve.service.overhead_ms": ("ms", "lower"),
    "serve.service.dedup_share": ("ratio", "higher"),
    "host.ref_ms": ("ms", "lower"),
    "host.io_ref_ms": ("ms", "lower"),
    "host.scale": ("ratio", "higher"),
    "trace.overhead": ("ratio", "lower"),
    "trace.coverage": ("ratio", "higher"),
}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _median(values) -> float:
    import numpy as np

    return float(np.median(values)) if len(values) else 0.0


def _warm_digest(wl) -> str:
    """The fingerprint of the warm-up op's exact counters."""
    return _fingerprint(wl.counts(*wl.warm), {}, wl.inexact)


def _setup_probe(workload: str, seed: int) -> None:
    """Child-process mode: time one workload set-up and print it."""
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed, ROOT)
    try:
        wl.setup()
        elapsed = time.perf_counter() - _STARTED
        warm = _warm_digest(wl)
    finally:
        wl.close()
    print(json.dumps({"setup_s": elapsed, "warm": warm}))


def _setup_seconds(workload: str, seed: int, cal) -> list[tuple]:
    """Set-up probes of SETUP_TRIALS fresh processes.

    Each is (raw seconds, kernel mark, warm-up digest).  The kernel runs
    WINDOW times before the first probe and after each one, so every
    probe has kernel samples on both sides of it.
    """
    for _ in range(WINDOW):
        cal.sample()
    samples = []
    for _ in range(SETUP_TRIALS):
        mark = len(cal.samples)
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload",
             workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        samples.append((probe["setup_s"], mark, probe["warm"]))
        for _ in range(WINDOW):
            cal.sample()
    return samples


def _layer_seconds(span, into: dict[str, float]) -> None:
    """Sum the span tree's named layer spans into per-metric seconds."""
    from workloads import SPAN_LAYERS

    metric = SPAN_LAYERS.get(span.name)
    if metric is not None:
        into[metric] = into.get(metric, 0.0) + span.seconds
    for child in span.children:
        _layer_seconds(child, into)


def _fingerprint(totals: dict, gauges: dict, inexact: tuple) -> str:
    exact = {
        name: int(value) for name, value in totals.items()
        if name not in inexact
    }
    exact.update({name: int(value) for name, value in gauges.items()})
    text = json.dumps(exact, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _code_identity() -> str:
    """A digest of the ``repro`` sources and the benchmark's own code.

    Fingerprints are compared only between runs of the same code, so a
    change that legitimately moves a counter records its own digest.
    """
    digest = hashlib.sha256()
    files = [
        path for path in (ROOT / "src" / "repro").rglob("*")
        if path.is_file() and "__pycache__" not in path.parts
    ]
    files += sorted(HERE.glob("*.py"))
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def _work_dir() -> Path:
    """The git-ignored run-state directory at the repository root."""
    path = ROOT / ".perfbench_work"
    path.mkdir(exist_ok=True)
    return path


def _check_fingerprint(key: str, digest: str) -> bool:
    """Compare with the digest an earlier run under *key* recorded."""
    path = _work_dir() / "fingerprints.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    previous = known.setdefault(key, digest)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, sort_keys=True, indent=1))
    os.replace(tmp, path)
    return previous == digest


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    import numpy as np
    from hostcal import HostCalibration
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed, ROOT)
    io_dir = None
    if wl.io_share:
        io_dir = Path(tempfile.mkdtemp(prefix="io-", dir=_work_dir()))
    cal = HostCalibration(io_dir)

    from repro.observe import Trace

    check_rng = np.random.default_rng([seed, 2])
    # One record per completed op:
    # (seconds, kernel mark, I/O weight, layer row or None).
    ops: list[tuple[float, int, float, dict | None]] = []
    totals: dict[str, float] = {}
    present: dict[str, int] = {}
    gauges: dict[str, float] = {}
    attempted = failed = 0
    try:
        setup_probes = _setup_seconds(workload, seed, cal)
        wl.setup()
        warm = _warm_digest(wl)
        for _ in range(WINDOW):
            cal.sample()
        deadline = time.perf_counter() + seconds
        least = max(MIN_OPS, wl.sample_ops)
        while attempted < least or time.perf_counter() < deadline:
            i = attempted
            attempted += 1
            # The reference comparisons are heavy (a second engine, a cold
            # Session), so they run in the traced run only, where they
            # cannot disturb the end-to-end timings.
            reference = traced and check_rng.random() < REFERENCE_SHARE
            # Traced and untraced ops alternate in blocks of four, so both
            # halves see every position of a workload's repeat pattern.
            trace = Trace() if traced and i % 8 >= 4 else None
            mark = len(cal.samples)
            try:
                inp = wl.next_input(i)
                if trace is None:
                    start = time.perf_counter()
                    out = wl.op(inp, None)
                    op_s, row = time.perf_counter() - start, None
                else:
                    with trace.span("op") as op_span:
                        out = wl.op(inp, trace)
                    row = {"op": op_span.seconds}
                    _layer_seconds(op_span, row)
                    for child in op_span.children:
                        if child.name == "serve.roundtrip":
                            row["roundtrip"] = child.seconds
                    row.update(wl.extras(inp, out))
                    op_s = op_span.seconds
                wl.check(inp, out, reference)
                ops.append((op_s, mark, wl.io_weight(inp, out), row))
                if i < wl.sample_ops:
                    for name, value in wl.counts(inp, out).items():
                        totals[name] = totals.get(name, 0) + value
                        present[name] = present.get(name, 0) + 1
                    if i == wl.sample_ops - 1:
                        gauges = wl.gauges()
            except Exception:
                failed += 1
                traceback.print_exc(file=sys.stderr)
            cal.sample()
        for _ in range(WINDOW - 1):
            cal.sample()
    finally:
        wl.close()
        if io_dir is not None:
            shutil.rmtree(io_dir, ignore_errors=True)

    setup_raw = [s for s, _, _ in setup_probes]
    # The warm-up op ran in six fresh processes; its counters must agree.
    repeatable = all(digest == warm for _, _, digest in setup_probes)
    if not repeatable:
        print(f"perfbench: warm-up fingerprints differ across processes: "
              f"{[digest for _, _, digest in setup_probes]} vs {warm}",
              file=sys.stderr)

    def scale_at(mark: int, io: float) -> float:
        return cal.local_scale(mark - WINDOW, mark + WINDOW, io)

    code = _code_identity()
    digest = _fingerprint(totals, gauges, wl.inexact)
    steady = _check_fingerprint(f"{workload}:{seed}:{code}", digest)
    if not steady:
        print(f"perfbench: fingerprint {digest} differs from an earlier "
              f"run of {workload} seed {seed} on code {code}",
              file=sys.stderr)
    untraced = [(s, mark, io) for s, mark, io, row in ops if row is None]
    if not traced:
        untraced = untraced[:len(untraced) - len(untraced) % wl.cycle]
    plain = [s for s, _, _ in untraced]
    normal = [s * scale_at(mark, io) for s, mark, io in untraced]
    raw = {
        "ops": len(plain),
        "latency_p50_ms": 1e3 * _median(plain),
        "latency_p90_ms": 1e3 * float(np.percentile(plain, 90)),
        "ops_per_s": len(plain) / sum(plain),
        "setup_s": _median(setup_raw),
        "setup_samples": setup_raw,
        "host_ref_ms": 1e3 * cal.ref_seconds(),
        "host_io_ref_ms": 1e3 * cal.io_ref_seconds(),
        "host_scale": cal.scale(),
    }
    if traced:
        rows = [
            {
                name: value * scale_at(
                    mark, 1.0 if name in wl.io_layers else io
                )
                for name, value in row.items()
            }
            for _, mark, io, row in ops if row is not None
        ]
        metrics = _ledger(wl, rows, normal, totals, present, gauges, cal)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rss_kb += wl.child_peak_rss_kb()
        metrics = {
            "ops_per_s": len(normal) / sum(normal),
            "latency_p50_ms": 1e3 * _median(normal),
            "latency_p90_ms": 1e3 * float(np.percentile(normal, 90)),
            # Each probe is scaled by the kernel samples around it, like
            # an op: the host changes speed within a few seconds.
            "setup_s": _median([
                s * cal.local_scale(mark - WINDOW, mark + WINDOW)
                for s, mark, _ in setup_probes
            ]),
            "peak_rss_mb": rss_kb / 1024,
        }
        units = {name: unit for name, (unit, _, _) in END_TO_END.items()}
    print(json.dumps({
        "workload": workload, "seed": seed, "trace": int(traced),
        "raw": raw, "fingerprint": digest, "code": code, "warm": warm,
        "exact_counts": {name: totals[name] for name in sorted(totals)},
        "gauges": gauges,
    }))
    return {
        "correct": failed == 0 and steady and repeatable,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }


def _ledger(wl, rows, normal, totals, present, gauges, cal) -> dict:
    """The per-layer metrics of a traced run (rows already normalised)."""
    metrics = {name: 0.0 for name in PER_LAYER}
    names = {name for row in rows for name in row if name.endswith("_ms")}
    for name in names:
        metrics[name] = 1e3 * _median([row[name] for row in rows if name in row])

    overheads = [
        row["roundtrip"] - row["server_s"] for row in rows if "server_s" in row
    ]
    if overheads:
        metrics["serve.service.overhead_ms"] = 1e3 * _median(overheads)
    ratios = [
        sum(row[name] for name in wl.partition) / row["op"]
        for row in rows
        if all(name in row for name in wl.partition)
    ]
    metrics["trace.coverage"] = _median(ratios)
    metrics["trace.overhead"] = (
        _median([row["op"] for row in rows]) / _median(normal)
    )
    metrics["host.ref_ms"] = 1e3 * cal.ref_seconds()
    metrics["host.io_ref_ms"] = 1e3 * cal.io_ref_seconds()
    metrics["host.scale"] = cal.scale()

    def mean(name: str) -> float:
        return totals.get(name, 0) / present[name] if present.get(name) else 0.0

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    pruned = totals.get("sim.pruned_stage_blocks", 0)
    verdict_hits = totals.get("cache.verdict_hits", 0)
    metrics.update({
        "testsets.words": mean("words"),
        "faults.injection.faults": mean("faults"),
        "faults.injection.kept_share": share(
            totals.get("faults", 0), totals.get("subsets", 0)
        ),
        "faults.simulation.evaluated_stage_blocks": mean(
            "sim.evaluated_stage_blocks"
        ),
        "faults.simulation.dropped_faults": mean("sim.dropped_faults"),
        "faults.simulation.prune_ratio": share(
            pruned, totals.get("sim.evaluated_stage_blocks", 0) + pruned
        ),
        "faults.diagnosis.classes": mean("classes"),
        "cache.prefix_partial_hits": mean("cache.prefix_partial_hits"),
        "cache.reused_comparators": mean("cache.reused_comparators"),
        "cache.evictions": mean("cache.evictions"),
        "cache.verdict_hit_share": share(
            verdict_hits, verdict_hits + totals.get("cache.verdict_misses", 0)
        ),
        "cache.stored_mb": gauges.get("cache.stored_bytes", 0) / 2**20,
        "api.serialize.result_kb": share(
            totals.get("result_bytes", 0), 1024 * totals.get("fresh", 0)
        ),
        "serve.service.dedup_share": share(
            gauges.get("serve.jobs_deduped", 0),
            gauges.get("serve.jobs_accepted", 0),
        ),
    })
    if metrics["trace.coverage"] < COVERAGE_FLOOR:
        print(
            f"perfbench: FLAG {wl.name}: layer spans explain "
            f"{metrics['trace.coverage']:.0%} of op time "
            f"(floor {COVERAGE_FLOOR:.0%})",
            file=sys.stderr,
        )
    return metrics


def write_manifest() -> None:
    """Write ``BENCHMARK.json`` at the repository root from the tables."""
    from workloads import WORKLOADS

    manifest = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": cls.why} for name, cls in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in PER_LAYER.items()
        ],
    }
    text = json.dumps(manifest, indent=2) + "\n"
    (ROOT / "BENCHMARK.json").write_text(text)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--manifest", action="store_true",
                        help="rewrite BENCHMARK.json and exit")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    if args.manifest:
        write_manifest()
        return 0
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail(f"no repro sources under {ROOT / 'src'}; run from a checkout")
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    # One core for the client, the calibration kernel and (inherited) the
    # server: the kernel then measures the core the op actually runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.workload not in WORKLOADS:
        _fail(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
