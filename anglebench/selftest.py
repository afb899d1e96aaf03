"""Self-test of the checkers: genuine outputs pass, wrong ones are caught.

    python3 anglebench/selftest.py

Runs one round of every workload against anglekit (the CLI in-process
through `cli.main`), checks that every output outside the two known
faults passes, then plants one wrong output of each kind and checks that
the oracle rejects it: a perturbed float, a flipped exactness flag, a
wrong numerator, a wrong lint rule, a wrong lint column and a wrong CLI
exit code.  Exits 1 if any check misbehaves.
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import harness  # noqa: E402
import oracle  # noqa: E402
import ops  # noqa: E402
from prepare import prepare  # noqa: E402

SEED = 12345


def _round(workload: str):
    spec = ops.WORKLOADS[workload]
    items = spec.generate(SEED, 0)
    _, outputs, _, _ = harness.run_round(spec, ops.Layers(), prepare(workload), items, None)
    return items, outputs


def _cli_round():
    from anglekit import cli

    items = gen.cli_round(SEED, 0)
    outputs = []
    for argv, stdin_text, _ in items:
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin_text or "")
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(argv)
        finally:
            sys.stdin = saved
        outputs.append((rc, out.getvalue(), err.getvalue()))
    return items, outputs


def main() -> int:
    problems = []

    def expect(label: str, condition: bool) -> None:
        print(f"{'ok  ' if condition else 'FAIL'} {label}")
        if not condition:
            problems.append(label)

    exact_items, exact_outputs = _round("exact_pipeline")
    numeric_items, numeric_outputs = _round("numeric_sweep")
    lint_items, lint_outputs = _round("lint_files")
    cli_items, cli_outputs = _cli_round()

    expect("genuine exact_pipeline outputs pass", all(oracle.check_exact_round(exact_items, exact_outputs)))
    verdicts = oracle.check_numeric_round(numeric_items, numeric_outputs)
    expect(
        "genuine numeric_sweep outputs pass outside the huge π band, which fails",
        all(ok != gen.numeric_fails(item) for item, ok in zip(numeric_items, verdicts)),
    )
    verdicts = oracle.check_lint_round(lint_items, lint_outputs)
    expect(
        "genuine lint_files outputs pass except the 1,200-term lines",
        all(ok != item[2] for item, ok in zip(lint_items, verdicts)),
    )
    expect("genuine cli outputs pass", all(oracle.check_cli_round(cli_items, cli_outputs)))

    def rejected(check, items, outputs, index, wrong) -> bool:
        planted = list(outputs)
        planted[index] = wrong
        return not check(items, planted)[index]

    # A perturbed float: a sine off by 1e-13.
    k = next(i for i, item in enumerate(numeric_items) if item[0] == "trig" and not gen.numeric_fails(item))
    s, c, t = numeric_outputs[k]
    expect("perturbed float is rejected", rejected(oracle.check_numeric_round, numeric_items, numeric_outputs, k, (s + 1e-13, c, t)))

    # A flipped exactness flag and a wrong numerator on an exact conversion.
    k = next(i for i, out in enumerate(exact_outputs) if isinstance(out[2][0], tuple) and out[2][0][0])
    out = list(exact_outputs[k])
    (n, d, e), unit = out[2]
    flipped = out.copy()
    flipped[2] = (n / d * (3.141592653589793**e), unit)
    expect("flipped exactness flag is rejected", rejected(oracle.check_exact_round, exact_items, exact_outputs, k, tuple(flipped)))
    wrong = out.copy()
    wrong[2] = ((n + 1, d, e), unit)
    expect("wrong numerator is rejected", rejected(oracle.check_exact_round, exact_items, exact_outputs, k, tuple(wrong)))

    # A wrong lint rule and a wrong lint column.
    k = next(i for i, out in enumerate(lint_outputs) if out and out[0] != "ERR" and out[0][0])
    first = lint_outputs[k][0]
    other_rule = next(r for r in (gen.RULE_TRIG, gen.RULE_BARE, gen.RULE_QUOTIENT) if r != first[0])
    expect(
        "wrong lint rule is rejected",
        rejected(oracle.check_lint_round, lint_items, lint_outputs, k, ((other_rule, *first[1:]), *lint_outputs[k][1:])),
    )
    expect(
        "wrong lint column is rejected",
        rejected(oracle.check_lint_round, lint_items, lint_outputs, k, ((first[0], first[1], first[2] + 1), *lint_outputs[k][1:])),
    )

    # A wrong CLI exit code, and a flipped exact= record.
    rc, out, err = cli_outputs[0]
    expect("wrong CLI exit code is rejected", rejected(oracle.check_cli_round, cli_items, cli_outputs, 0, (rc + 1, out, err)))
    k = next(i for i, (_, out, _) in enumerate(cli_outputs) if "exact=true" in out or "exact=false" in out)
    rc, out, err = cli_outputs[k]
    swapped = out.replace("exact=true", "exact=@").replace("exact=false", "exact=true").replace("exact=@", "exact=false")
    expect("flipped CLI exact= record is rejected", rejected(oracle.check_cli_round, cli_items, cli_outputs, k, (rc, swapped, err)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
