"""Shared pytest hooks: the release gate's verdict lines in the summary."""


def pytest_terminal_summary(terminalreporter):
    """Print every `verdict` user property, in the order the tests ran,
    then the path of the gate record they were written to."""
    calls = [rep for reps in terminalreporter.stats.values() for rep in reps
             if getattr(rep, "when", None) == "call"]
    props = [(key, value)
             for rep in sorted(calls, key=lambda rep: rep.start)
             for key, value in rep.user_properties]
    lines = [value for key, value in props if key == "verdict"]
    records = dict.fromkeys(value for key, value in props
                            if key == "gate_record")
    if lines:
        terminalreporter.section("acceptance verdicts")
        for line in lines:
            terminalreporter.write_line(line)
        for path in records:
            terminalreporter.write_line(f"gate record: {path}")
