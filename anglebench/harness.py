"""Timing machinery: the yardstick, set-up probes, the measuring loops.

Every timed block of anglekit work sits between two blocks of a
yardstick timed the same way, and the analysis divides each op's time by
the mean of its two neighbours.  A machine that runs the yardstick 10%
slow is assumed to run the ops 10% slow too, so the ratio stays put when
the shared host speeds up or slows down between runs.

In-process workloads use a standard-library loop (Fraction arithmetic,
regex matching, string formatting; nothing from anglekit) as the
yardstick.  `cli_cold` alternates each anglekit process with a bare
`-c pass` process of the same interpreter and environment.

Everything is timed in CPU time (the thread's for in-process work, the
child's for processes): a slice in which the host ran another process is
not charged to whichever op was running.  What the host's load does to
the speed of the CPU while this work runs is what the yardstick divides
out.
"""

from __future__ import annotations

import gc
import io
import marshal
import os
import re
import resource
import subprocess
import sys
import threading
import time
from array import array
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from statistics import median
from typing import NamedTuple

import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".anglebench_out"

# µs per yardstick iteration on a machine of nominal speed, and CPU
# seconds per bare interpreter start on the same.  Fixed constants:
# normalised figures read as µs or s at this nominal speed.  Never
# re-measured.
YARDSTICK_NOMINAL_US = 18.0
INTERPRETER_NOMINAL_S = 0.060

# In-process ops, spans and yardstick blocks are timed in this thread's
# CPU time (see the module docstring).
CLOCK = time.thread_time

YARDSTICK_CHUNKS = 5
YARDSTICK_ITERATIONS = 40
SETUP_REPEATS = 9
CLI_SETUP_REPEATS = 3
# Children (or warm calls) per probe of the traced run; each probe
# reports the median.
IMPORT_PROBE_REPEATS = 3
START_PROBE_REPEATS = 5
MAIN_PROBE_REPEATS = 5
# Longest stretch of ops between two yardstick blocks.
BLOCK_SECONDS = 0.005
TRACE_FILE_ROUNDS = 3
CHILD_TIMEOUT_S = 60

_YARDSTICK_PATTERN = re.compile(r"(-?\d+)/(\d+) u(\d+) ")


def _yardstick_iteration(k: int) -> int:
    a = Fraction(k % 89 + 1, 360)
    b = Fraction(7, k % 11 + 2)
    c = (a * b + a - b / 3) * a
    text = f"{c.numerator}/{c.denominator} u{k:05d} {float(c):.12g}"
    m = _YARDSTICK_PATTERN.match(text)
    return len(m.group(2)) + len(text)


def yardstick_block() -> float:
    """µs per yardstick iteration: the median of a few timed chunks.

    Collects garbage first, outside the timed chunks, so a collection
    owed by the previous block of ops does not land here.
    """
    gc.collect()
    clock = CLOCK
    chunks = []
    for _ in range(YARDSTICK_CHUNKS):
        start = clock()
        for k in range(YARDSTICK_ITERATIONS):
            _yardstick_iteration(k)
        chunks.append((clock() - start) / YARDSTICK_ITERATIONS * 1e6)
    return median(chunks)


class RunFailure(Exception):
    """The run cannot produce honest figures; no metrics are printed."""


# ----------------------------------------------------------------------
# child processes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Child(NamedTuple):
    wall: float
    cpu: float
    returncode: int
    stdout: str
    stderr: str
    pid: int


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def spawn(argv: list[str], env: dict, stdin_text: str | None = None) -> Child:
    """Run one child to completion; its wall time and CPU time in seconds."""
    clock = time.perf_counter
    cpu = _children_cpu()
    start = clock()
    proc = subprocess.Popen(
        argv,
        stdin=subprocess.PIPE if stdin_text is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(
            None if stdin_text is None else stdin_text.encode(), timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailure(f"child {argv[1:4]} did not finish in {CHILD_TIMEOUT_S} s") from None
    elapsed = clock() - start
    return Child(
        elapsed,
        _children_cpu() - cpu,
        proc.returncode,
        out.decode(errors="replace"),
        err.decode(errors="replace"),
        proc.pid,
    )


def check_no_strays(session_ids: set[int]) -> None:
    """Fail if a process of any given session is still alive.

    Each child starts its own session, so a process it left behind keeps
    that session id even after it is re-parented.
    """
    if not session_ids:
        return
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) in session_ids:
            raise RunFailure(f"an anglekit process left process {entry} running")


def check_alone() -> None:
    """Fail if anything started a thread or left a child process alive."""
    threads = os.listdir("/proc/self/task")
    if threading.active_count() != 1 or len(threads) != 1:
        raise RunFailure("a thread is still running beside the benchmark")
    for tid in threads:
        with open(f"/proc/self/task/{tid}/children") as handle:
            if handle.read().strip():
                raise RunFailure("a child process is still running")


def verify_origin(path: str) -> None:
    expected = (SRC / "anglekit").resolve()
    if Path(path).resolve().parent != expected:
        raise RunFailure(f"anglekit was imported from {path}, not from {expected}")


_SETUP_CODE = """\
import sys, time
sys.path.insert(0, {bench!r})
import prepare
start = time.process_time()
prepare.prepare({workload!r})
elapsed = time.process_time() - start
import anglekit
print(repr((elapsed, anglekit.__file__)))
"""


def measure_setup_inprocess(workload: str, env: dict) -> list[tuple[float, float]]:
    """(raw seconds, neighbouring yardstick µs) per fresh-interpreter set-up.

    The child times its own set-up in process CPU time, for the reason
    CLOCK gives.
    """
    code = _SETUP_CODE.format(bench=str(Path(__file__).resolve().parent), workload=workload)
    samples = []
    before = yardstick_block()
    for _ in range(SETUP_REPEATS):
        child = spawn([sys.executable, "-c", code], env)
        if child.returncode != 0:
            raise RunFailure(f"set-up child failed: {child.stderr.strip()[-300:]}")
        elapsed, origin = eval(child.stdout.strip().splitlines()[-1], {})
        verify_origin(origin)
        after = yardstick_block()
        samples.append((elapsed, (before + after) / 2))
        before = after
    return samples


# ----------------------------------------------------------------------
# records


class Recorder:
    """Appends marshal records to a file; one record per round."""

    def __init__(self, path: Path):
        path.parent.mkdir(exist_ok=True)
        self.path = path
        self.handle = open(path, "wb")

    def write(self, record: dict) -> None:
        marshal.dump(record, self.handle)

    def close(self) -> None:
        self.handle.close()


def read_records(path: Path):
    with open(path, "rb") as handle:
        while True:
            try:
                yield marshal.load(handle)
            except EOFError:
                return


# ----------------------------------------------------------------------
# in-process workloads


def run_round(spec, layers, objects: dict, items: list, counts: dict | None, yardsticks=None):
    """Run one round; return (op times, outputs, spans per op, block starts).

    With a `yardsticks` list (holding the block before the round), a
    yardstick block is timed whenever BLOCK_SECONDS of the round have
    passed, so long rounds are still divided by a yardstick timed next to
    them.  Spans are collected only when `layers` is traced; probes
    (direct calls on the op's operands) run after the op's timed region.
    Each op is handed the previous op's output, None after an op that
    raised and at the start of the round.
    """
    clock = CLOCK
    traced = layers.spans is not None
    spans = layers.spans
    times = array("d")
    outputs = []
    op_spans = []
    blocks = [0]
    previous = None
    block_start = time.perf_counter()
    for index, item in enumerate(items):
        if yardsticks is not None and index and time.perf_counter() - block_start >= BLOCK_SECONDS:
            yardsticks.append(yardstick_block())
            blocks.append(index)
            block_start = time.perf_counter()
        if traced:
            spans.clear()
        start = clock()
        try:
            out = spec.op(layers, objects, item, previous)
        except Exception as exc:  # an op that raises is a failed op, recorded as such
            end = clock()
            previous = None
            times.append(end - start)
            outputs.append(("ERR", type(exc).__name__, str(exc)[:200]))
            op_spans.append(None)
            continue
        end = clock()
        times.append(end - start)
        if traced:
            spec.probe(layers, item, out, counts if counts is not None else {})
            op_spans.append((start, end, list(spans)))
        outputs.append(out if spec.serialize is None else spec.serialize(out))
        previous = out
    return times, outputs, op_spans, blocks


def _span_durations(op_spans) -> dict:
    durations: dict[str, list[float]] = {}
    for entry in op_spans:
        if entry is None:
            continue
        for name, start, end in entry[2]:
            durations.setdefault(name, []).append(end - start)
    return durations


def measure_inprocess(workload: str, seed: int, seconds: float, traced: bool, recorder: Recorder):
    """Alternate rounds of ops with yardstick blocks for `seconds`.

    Traced runs alternate traced and untraced rounds, so the tracing
    overhead is measured inside one run.  Returns the counts taken on
    round 0 (the same in every run of a seed).
    """
    import ops
    from prepare import prepare

    spec = ops.WORKLOADS[workload]
    objects = prepare(workload)
    plain = ops.Layers()
    tracing = ops.Layers([]) if traced else None
    # Warm-up round from an index no measured round uses: fills caches
    # and specialises bytecode before the first timed op.
    run_round(spec, plain, objects, spec.generate(seed, -1), None)
    counts: dict = {}
    before = yardstick_block()
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        items = spec.generate(seed, index)
        traced_round = traced and index % 2 == 0
        layers = tracing if traced_round else plain
        yardsticks = [before]
        times, outputs, op_spans, blocks = run_round(
            spec, layers, objects, items, counts if index == 0 else None, yardsticks
        )
        after = yardstick_block()
        yardsticks.append(after)
        recorder.write(
            {
                "round": index,
                "traced": traced_round,
                "yardstick": yardsticks,
                "blocks": blocks,
                "times": times.tobytes(),
                "outputs": outputs,
                "durations": _span_durations(op_spans) if traced_round else {},
                "spans": op_spans if traced_round and index < 2 * TRACE_FILE_ROUNDS else None,
            }
        )
        before = after
        index += 1
        # A traced run needs an untraced round to measure its overhead.
        if time.perf_counter() >= deadline and (index >= 2 or not traced):
            return counts


def probe_round(workload: str, seed: int) -> tuple[dict, dict, float]:
    """One traced round of another workload: its span durations and counts."""
    import ops
    from prepare import prepare

    spec = ops.WORKLOADS[workload]
    objects = prepare(workload)
    layers = ops.Layers([])
    run_round(spec, ops.Layers(), objects, spec.generate(seed, -1), None)
    counts: dict = {}
    before = yardstick_block()
    _, _, op_spans, _ = run_round(spec, layers, objects, spec.generate(seed, 0), counts)
    after = yardstick_block()
    return _span_durations(op_spans), counts, (before + after) / 2


# ----------------------------------------------------------------------
# cli_cold


CLI_ARGV = [sys.executable, "-m", "anglekit.cli"]
PASS_ARGV = [sys.executable, "-c", "pass"]
SETUP_ARGV = ["convert", "180°", "rad"]


def measure_cli(seed: int, seconds: float, traced: bool, recorder: Recorder, env: dict):
    """Alternate anglekit processes with bare interpreter starts.

    Returns the set-up samples: the first invocations of the run, each
    as (raw seconds, neighbouring interpreter-start seconds, returncode,
    stdout).
    """
    spawn(PASS_ARGV, env)
    origin = spawn([sys.executable, "-c", "import anglekit.cli; print(anglekit.cli.__file__)"], env)
    verify_origin(origin.stdout.strip())
    setup = []
    before = spawn(PASS_ARGV, env)
    for _ in range(CLI_SETUP_REPEATS):
        child = spawn(CLI_ARGV + SETUP_ARGV, env)
        after = spawn(PASS_ARGV, env)
        check_no_strays({child.pid})
        setup.append((child.cpu, (before.cpu + after.cpu) / 2, child.returncode, child.stdout))
        before = after
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        sessions = set()
        times, passes, outputs, spans = array("d"), [], [], []
        for argv, stdin_text, _ in gen.cli_round(seed, index):
            start = time.perf_counter()
            child = spawn(CLI_ARGV + argv, env, stdin_text)
            sessions.add(child.pid)
            after = spawn(PASS_ARGV, env)
            times.append(child.cpu)
            passes.append((before.cpu, after.cpu))
            outputs.append((child.returncode, child.stdout, child.stderr))
            spans.append((f"cli.process.{argv[0]}", start, start + child.wall))
            before = after
        check_no_strays(sessions)
        recorder.write(
            {
                "round": index,
                # Spans are taken around processes, never inside one, so
                # traced and untraced rounds would run the same code.
                "traced": False,
                "yardstick": passes,
                "times": times.tobytes(),
                "outputs": outputs,
                "durations": {},
                "spans": spans if traced and index < TRACE_FILE_ROUNDS else None,
            }
        )
        index += 1
        if time.perf_counter() >= deadline:
            return setup


# ----------------------------------------------------------------------
# cli probes for the traced run


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|(\s*)(\S+)")
IMPORT_MODULES = (
    "anglekit",
    "anglekit.errors",
    "anglekit.exact",
    "anglekit.angles",
    "anglekit.quadrature",
    "anglekit.geometry",
    "anglekit.trig",
    "anglekit.textio",
    "anglekit.lint",
    "anglekit.cli",
    "argparse",
)


def probe_imports(env: dict) -> dict:
    """Median self time (µs) per module, and the total, from -X importtime."""
    samples: dict[str, list[int]] = {}
    for _ in range(IMPORT_PROBE_REPEATS):
        child = spawn([sys.executable, "-X", "importtime", "-c", "import anglekit.cli"], env)
        if child.returncode != 0:
            raise RunFailure("import probe failed")
        for line in child.stderr.splitlines():
            m = _IMPORT_LINE.match(line)
            if m is None:
                continue
            name = m.group(4)
            if name in IMPORT_MODULES:
                samples.setdefault(name, []).append(int(m.group(1)))
            if name == "anglekit.cli":
                samples.setdefault("total", []).append(int(m.group(2)))
    return {name: median(values) for name, values in samples.items()}


def probe_interpreter(env: dict) -> float:
    return median(spawn(PASS_ARGV, env).wall for _ in range(START_PROBE_REPEATS))


def probe_main(seed: int) -> dict:
    """Median in-process, warm `cli.main` time (s) per subcommand."""
    from anglekit import cli

    results = {}
    for argv, stdin_text, _ in gen.cli_round(seed, 0)[: len(gen.CLI_COMMANDS)]:
        samples = []
        for k in range(MAIN_PROBE_REPEATS + 1):
            saved = sys.stdin
            sys.stdin = io.StringIO(stdin_text or "")
            try:
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    start = CLOCK()
                    cli.main(argv)
                    elapsed = CLOCK() - start
            finally:
                sys.stdin = saved
            if k:
                samples.append(elapsed)
        results[argv[0]] = median(samples)
    return results
