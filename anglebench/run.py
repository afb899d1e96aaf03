"""Run one anglekit benchmark workload and print its metrics.

    python3 anglebench/run.py --workload exact_pipeline --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; anglekit is imported from its `src`.
The run measures for `--seconds`, then checks every output against the
independent oracles and prints reference figures followed, on the last
line, by one JSON object: correct, attempted, failed and metrics.  With
`--trace 0` the metrics are the end-to-end ones; with `--trace 1` they
are the per-layer ones plus the tracing overhead.  Raw results and
traces go to `.anglebench_out/`.
"""

from __future__ import annotations

import argparse
import compileall
import json
import resource
import sys
from array import array
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

END_TO_END = {
    "throughput_ops_s": "ops/s",
    "op_p50_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _arguments(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (ROOT / "src" / "anglekit" / "__init__.py").is_file():
        print("error: no anglekit source under src/ in this checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    import ops

    args = _arguments(argv, ops.WORKLOADS)

    try:
        result, reference = _run(args)
    except harness.RunFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for line in reference:
        print(line)
    print(json.dumps(result))
    return 0


def _run(args):
    import harness
    import ops

    import anglekit

    harness.verify_origin(anglekit.__file__)
    # Bytecode caches exist before any set-up is timed.
    compileall.compile_dir(str(ROOT / "src" / "anglekit"), quiet=1)
    env = harness.child_env()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    recorder = harness.Recorder(harness.OUT / f"{tag}.results")
    counts: dict = {}
    cli = args.workload == "cli_cold"
    try:
        if cli:
            setup = harness.measure_cli(args.seed, args.seconds, bool(args.trace), recorder, env)
        else:
            setup = harness.measure_setup_inprocess(args.workload, env)
            counts = harness.measure_inprocess(
                args.workload, args.seed, args.seconds, bool(args.trace), recorder
            )
    finally:
        recorder.close()
    # Peak RSS is read before any checker code is imported.
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF)
    peak_rss_mb = usage.ru_maxrss / 1024
    harness.check_alone()
    probes = _probes(args, env) if args.trace else None
    harness.check_alone()

    import oracle

    summary = _analyse(args, recorder.path, getattr(oracle, ops.WORKLOADS[args.workload].check))
    if cli:
        setup_norm = [raw * harness.INTERPRETER_NOMINAL_S / base for raw, base, _, _ in setup]
        if not all(oracle.check_cli_setup((rc, out, "")) for _, _, rc, out in setup):
            summary["unexpected"] += 1
        setup_raw = [raw for raw, _, _, _ in setup]
    else:
        setup_norm = [raw * harness.YARDSTICK_NOMINAL_US / base for raw, base in setup]
        setup_raw = [raw for raw, _ in setup]
    result = {
        "correct": summary["unexpected"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
    }
    if args.trace:
        metrics = _layer_metrics(args, summary, counts, probes)
    else:
        times = summary["plain"]
        metrics = {
            "throughput_ops_s": summary["passed"] / sum(times),
            "op_p50_us": median(times) * 1e6,
            "setup_s": median(setup_norm),
            "peak_rss_mb": peak_rss_mb,
        }
    units = END_TO_END if not args.trace else _layer_units()
    result["metrics"] = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    reference = _reference_lines(args, summary, setup_raw, setup_norm)
    with open(harness.OUT / f"{tag}.json", "w") as handle:
        json.dump({"result": result, "reference": reference, "yardstick": summary["yardstick"]}, handle)
    return result, reference


def _analyse(args, path, check) -> dict:
    """Check every recorded output and normalise every op time."""
    import harness
    import ops

    cli = args.workload == "cli_cold"
    spec = ops.WORKLOADS[args.workload]
    summary = {
        "attempted": 0,
        "failed": 0,
        "unexpected": 0,
        "passed": 0,
        "plain": [],
        "traced": [],
        "raw": [],
        "yardstick": [],
        "durations": {},
        "lines": 0,
        "rounds": 0,
        "repeated": 0,
        "spans": [],
    }
    seen = set()
    for record in harness.read_records(path):
        items = spec.generate(args.seed, record["round"])
        times = array("d")
        times.frombytes(record["times"])
        verdicts = check(items, record["outputs"])
        if cli:
            bases = [(a + b) / 2 for a, b in record["yardstick"]]
            scales = [harness.INTERPRETER_NOMINAL_S / base for base in bases]
            summary["yardstick"].extend(bases)
        else:
            yardsticks, starts = record["yardstick"], record["blocks"] + [len(times)]
            scales = []
            for block in range(len(starts) - 1):
                base = (yardsticks[block] + yardsticks[block + 1]) / 2
                scales.extend([harness.YARDSTICK_NOMINAL_US / base] * (starts[block + 1] - starts[block]))
            summary["yardstick"].extend(yardsticks[1:])
        bucket = summary["traced"] if record["traced"] else summary["plain"]
        for item, raw, scale, ok, output in zip(items, times, scales, verdicts, record["outputs"]):
            summary["attempted"] += 1
            summary["raw"].append(raw)
            bucket.append(raw * scale)
            key = repr(item)
            summary["repeated"] += key in seen
            seen.add(key)
            if ok:
                summary["passed"] += 1
            else:
                summary["failed"] += 1
                summary["unexpected"] += not spec.fails(item)
            if record["traced"] and args.workload == "lint_files" and not (
                isinstance(output, tuple) and output and output[0] == "ERR"
            ):
                summary["lines"] += sum(1 for line in item[0].splitlines() if line.strip())
        mean_scale = sum(scales) / len(scales)
        for name, values in record["durations"].items():
            summary["durations"].setdefault(name, []).extend(v * mean_scale for v in values)
        if record["spans"] is not None:
            summary["spans"].append(record["spans"])
        summary["rounds"] += 1
    if summary["spans"]:
        _write_trace(args, summary["spans"])
    return summary


def _write_trace(args, rounds) -> None:
    import harness

    path = harness.OUT / f"{args.workload}-seed{args.seed}.trace.jsonl"
    with open(path, "w") as handle:
        span_id = 0
        for spans in rounds:
            for entry in spans:
                if entry is None:
                    continue
                if isinstance(entry[0], str):
                    name, start, end = entry
                    handle.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end, "parent": None}) + "\n")
                    span_id += 1
                    continue
                start, end, children = entry
                parent = span_id
                handle.write(json.dumps({"id": parent, "name": f"{args.workload}.op", "start": start, "end": end, "parent": None}) + "\n")
                span_id += 1
                for name, child_start, child_end in children:
                    handle.write(
                        json.dumps({"id": span_id, "name": name, "start": child_start, "end": child_end, "parent": parent})
                        + "\n"
                    )
                    span_id += 1


def _probes(args, env) -> dict:
    """Traced-run figures for the layers this workload does not reach."""
    import harness
    import ops

    probes = {"rounds": {}}
    for workload in ops.INPROCESS:
        if workload != args.workload:
            probes["rounds"][workload] = harness.probe_round(workload, args.seed)
    probes["yardstick"] = median(harness.yardstick_block() for _ in range(5))
    probes["imports"] = harness.probe_imports(env)
    probes["main"] = harness.probe_main(args.seed)
    probes["interpreter"] = harness.probe_interpreter(env)
    return probes


def _layer_units() -> dict:
    import gen
    import harness
    import ops

    units = {}
    for spec in ops.WORKLOADS.values():
        units.update({f"{name}_us": "us" for name in spec.spans})
    units.update(
        {
            "angles.exact_share": "ratio",
            "quadrature.integrand_calls": "count",
            "lint.lint_text_us_per_line": "us",
            "lint.rules_self_us": "us",
            "textio.nodes_per_line": "count",
            "lint.findings_per_file": "count",
            "cli.import_total_us": "us",
            "cli.interpreter_start_us": "us",
            "yardstick_us": "us",
            "trace.overhead_pct": "%",
        }
    )
    units.update({f"cli.import_self_us.{name}": "us" for name in harness.IMPORT_MODULES})
    units.update({f"cli.main_us.{name}": "us" for name in gen.CLI_COMMANDS})
    return units


def _layer_metrics(args, summary, counts, probes) -> dict:
    import harness
    import ops

    scale = harness.YARDSTICK_NOMINAL_US / probes["yardstick"]
    sources = {}
    for workload in ops.INPROCESS:
        if workload == args.workload:
            sources[workload] = (summary["durations"], counts)
        else:
            durations, probe_counts, base = probes["rounds"][workload]
            factor = harness.YARDSTICK_NOMINAL_US / base
            sources[workload] = (
                {name: [v * factor for v in values] for name, values in durations.items()},
                probe_counts,
            )
    metrics = {}
    for workload in ops.INPROCESS:
        durations = sources[workload][0]
        for name in ops.WORKLOADS[workload].spans:
            metrics[f"{name}_us"] = median(durations[name]) * 1e6
    exact_counts = sources["exact_pipeline"][1]
    metrics["angles.exact_share"] = exact_counts["exact_results"] / exact_counts["results"]
    numeric_counts = sources["numeric_sweep"][1]
    metrics["quadrature.integrand_calls"] = numeric_counts["integrand_calls"] / numeric_counts["integrals"]
    lint_durations, lint_counts = sources["lint_files"]
    if args.workload == "lint_files":
        lines = summary["lines"]
    else:
        lines = lint_counts["lines"]
    lint_total = sum(lint_durations["lint.lint_text"])
    inner = sum(lint_durations["textio.parse_expression"]) + sum(lint_durations["textio.walk"])
    metrics["lint.lint_text_us_per_line"] = lint_total / lines * 1e6
    metrics["lint.rules_self_us"] = (lint_total - inner) / lines * 1e6
    metrics["textio.nodes_per_line"] = lint_counts["nodes"] / lint_counts["parsed_lines"]
    metrics["lint.findings_per_file"] = lint_counts["findings"] / lint_counts["files"]
    # -X importtime reads wall time in a child process: it is divided by
    # the bare interpreter start timed the same way.
    imports = probes["imports"]
    start_scale = harness.INTERPRETER_NOMINAL_S / probes["interpreter"]
    metrics["cli.import_total_us"] = imports["total"] * start_scale
    for name in harness.IMPORT_MODULES:
        metrics[f"cli.import_self_us.{name}"] = imports[name] * start_scale
    for name, seconds in probes["main"].items():
        metrics[f"cli.main_us.{name}"] = seconds * 1e6 * scale
    metrics["cli.interpreter_start_us"] = probes["interpreter"] * 1e6
    metrics["yardstick_us"] = probes["yardstick"]
    if args.workload == "cli_cold":
        # No span is taken inside an anglekit process, so tracing adds
        # nothing to a cli_cold op.
        metrics["trace.overhead_pct"] = 0.0
    else:
        metrics["trace.overhead_pct"] = (median(summary["traced"]) / median(summary["plain"]) - 1) * 100
    return metrics


def _reference_lines(args, summary, setup_raw, setup_norm) -> list[str]:
    times = summary["plain"] or summary["traced"]
    unit = "s" if args.workload == "cli_cold" else "us"
    yard = summary["yardstick"]
    lines = [
        f"workload {args.workload} seed {args.seed}: {summary['rounds']} rounds, "
        f"{summary['attempted']} ops attempted, {summary['failed']} failed "
        f"({summary['unexpected']} outside the known faults)",
        f"reference: raw op p50 {median(summary['raw']) * 1e6:.3f} us; "
        f"yardstick ({'interpreter start, CPU s' if unit == 's' else 'us per iteration'}) "
        f"median {median(yard):.6g}, min {min(yard):.6g}, max {max(yard):.6g}",
        f"reference: set-up raw s {', '.join(f'{v:.4f}' for v in setup_raw)}; "
        f"normalised {', '.join(f'{v:.4f}' for v in setup_norm)}",
        f"reference: repeated inputs {summary['repeated']} of {summary['attempted']}",
    ]
    ordered = sorted(times)
    rank = min(len(ordered) - 1, int(0.99 * len(ordered)))
    lines.append(
        f"reference: op_p99_us {ordered[rank] * 1e6:.3f} (normalised, {len(ordered)} samples, "
        f"{len(ordered) - rank - 1} beyond it)"
    )
    if args.workload == "cli_cold" and args.trace:
        lines.append(
            "reference: trace.overhead_pct is 0 on cli_cold: its spans are taken around "
            "processes, never inside one, so traced and untraced rounds run the same code"
        )
    return lines


if __name__ == "__main__":
    sys.exit(main())
