"""The program objects each workload's ops reuse.

Set-up time is measured around `prepare` in a fresh interpreter, so it
covers importing anglekit and building these objects, and nothing of the
benchmark's own code.
"""


def prepare(workload: str) -> dict:
    import anglekit

    objects = {
        "references": {ref.name: ref for ref in anglekit.BUILTIN_REFERENCES},
        "forms": anglekit.textio.ANGLE_FORMS,
    }
    if workload == "numeric_sweep":
        periods = (
            anglekit.ExactScalar(1),
            anglekit.ExactScalar(360),
            anglekit.ExactScalar(400),
            anglekit.ExactScalar(2, 1, 1),
            anglekit.ExactScalar(2, 3, 1),
        )
        objects["periods"] = periods
        objects["functions"] = tuple(
            tuple(anglekit.PeriodizedFunction(kind, period) for kind in ("sin", "cos", "tan"))
            for period in periods
        )
    return objects
