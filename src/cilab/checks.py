"""The one gate every check goes through.

A check measures all its residuals (and any monitored values) into a plain
dict, folding per-slice maxima with `fold_maxima`, and hands it to `gate`
once, with the tolerance of each gated key; only input preconditions are
gated before. `gate` records each tolerance under `<key>_tolerance` and
raises the check's error type unless every gated residual satisfies
`value <= tol`; every comparison with a NaN is false, so a NaN residual or
tolerance never passes; each check fixes its own. The error names every
failure in gate order, carries them as `failures = ((key, value), ...)`
and the report as `report`: every residual the check measures.
"""

from __future__ import annotations


def fold_maxima(report: dict, per_slice) -> dict:
    """Fold each slice's list of (key, value) pairs into report's running
    maxima, in slice order, exactly as a serial loop would. A NaN value
    sticks, so the gate rejects it."""
    for updates in per_slice:
        for key, value in updates:
            if value > report[key] or value != value:
                report[key] = value
    return report


def gate(report: dict, gates, error) -> dict:
    """Record each (key, label, tol) of gates as report[key + "_tolerance"]
    and raise error naming every key whose value is not <= tol, as
    "<label> <value> exceeds <tol>" joined by "; ", report attached as
    its .report. Returns report."""
    failures = []
    for key, label, tol in gates:
        report[key + "_tolerance"] = tol
        value = report[key]
        if not value <= tol:
            failures.append((key, label, value, tol))
    if failures:
        exc = error("; ".join(f"{label} {value:g} exceeds {tol:g}"
                              for _, label, value, tol in failures))
        exc.failures = tuple((key, value) for key, _, value, _ in failures)
        exc.report = report
        raise exc
    return report
