"""One repetition of a workload, in a fresh process.

Run by ``perfbench/run.py``, never imported.  The process imports
``irsrelay``, resolves the workload's settings through ``cli.parse_config``
and stamps the monotonic clock (the parent subtracts its own stamp taken just
before spawning, which gives the set-up time).  Then it builds the table and
writes it with ``cli.emit_table``, and prints one JSON line:
``setup_done``, ``wall_s`` (table build plus emit), ``kernel_s`` (the
reference kernel, on as many threads as the table has workers, timed just
before and just after the table),
``peak_rss_kb`` and, when asked, the environment and the per-layer metrics
of a traced build.

Usage: child.py WORKLOAD SEED OUT_CSV [--setup-only] [--trace SPANS_JSONL] [--env]
"""

import json
import resource
import sys
import threading
import time

#: rounds of the reference kernel: about 0.03 s in all on a 2-core x86_64 machine
KERNEL_ROUNDS = 10


def _kernel(rounds: int) -> None:
    """A fixed job that does not use ``irsrelay``.

    Its three equal parts are what a table spends its time on: plain
    interpreter work, numpy calls on small complex vectors, and 16 x 16
    pseudo-inverses.  Of the kernels tried (these three, alone and summed,
    and a memory-bound one) their sum followed the host's momentary speed
    most closely while a table was built.
    """
    import numpy as np

    rng = np.random.default_rng(12345)
    a = rng.standard_normal((16, 160)) + 1j * rng.standard_normal((16, 160))
    square = np.conj(a[:, :16].T) @ a[:, :16] + np.eye(16)
    total = 0.0
    for _ in range(rounds * 300):
        d = {k: k * 0.5 + total for k in range(40)}
        total += sum(d.values()) * 1e-9
    for i in range(rounds * 60):
        g = np.conj(a.T) @ a[:, i % 16]
        total += float(np.linalg.norm(np.exp(1j * np.angle(g))))
    for _ in range(rounds * 15):
        total += float(np.linalg.pinv(square, rcond=1e-10)[0, 0].real)


def reference_kernel_s(threads: int, rounds: int = KERNEL_ROUNDS) -> float:
    """Seconds per kernel when ``threads`` threads run one kernel each.

    The calling thread runs one of them, so a serial table's kernel runs on
    the core the table ran on.  A table built by two workers keeps both
    cores busy in turn and hands the interpreter lock between its threads;
    the kernel run the same way followed that table's speed far better than
    one kernel on one thread (correlation 0.70 against 0.52 over a 240 s
    probe of ``sweep-snr-w2``).
    """
    others = [threading.Thread(target=_kernel, args=(rounds,)) for _ in range(threads - 1)]
    start = time.perf_counter()
    for other in others:
        other.start()
    _kernel(rounds)
    for other in others:
        other.join()
    return (time.perf_counter() - start) / threads


def main(argv: list[str]) -> int:
    workload_name, seed, out_path = argv[0], int(argv[1]), argv[2]
    flags = argv[3:]
    setup_only = "--setup-only" in flags
    spans_path = flags[flags.index("--trace") + 1] if "--trace" in flags else None

    from workloads import WORKLOADS, settings_overrides

    workload = WORKLOADS[workload_name]
    import irsrelay.cli as cli

    tracer = None
    if spans_path is not None:
        from tracing import Tracer

        tracer = Tracer().install()
    settings = cli.parse_config(overrides=settings_overrides(workload, seed), env={})
    setup_done = time.monotonic()
    report = {"setup_done": setup_done}
    if not setup_only:
        # untimed: the first calls in a process run slower
        reference_kernel_s(workload.workers, rounds=1)
        kernel_before = reference_kernel_s(workload.workers)
        start = time.perf_counter()
        if workload.subcommand == "run":
            table = cli.build_run_table(settings)
        else:
            table = cli.build_sweep_table(workload.subcommand, settings)
        cli.emit_table(table, "csv", out_path)
        report["wall_s"] = time.perf_counter() - start
        report["kernel_s"] = [kernel_before, reference_kernel_s(workload.workers)]
    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        from tracing import layer_metrics

        report["layers"] = layer_metrics(tracer, workload.workers)
        with open(spans_path, "w", encoding="utf-8") as handle:
            for record in tracer.records():
                handle.write(json.dumps(record) + "\n")
    if "--env" in flags:
        from environment import describe

        report["env"] = describe()
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
