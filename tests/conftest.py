"""Shared pytest hooks: the release gate's verdict lines in the summary."""


def pytest_terminal_summary(terminalreporter):
    """Print every `verdict` user property, in the order the tests ran."""
    calls = [rep for reps in terminalreporter.stats.values() for rep in reps
             if getattr(rep, "when", None) == "call"]
    lines = [value for rep in sorted(calls, key=lambda rep: rep.start)
             for key, value in rep.user_properties if key == "verdict"]
    if lines:
        terminalreporter.section("acceptance verdicts")
        for line in lines:
            terminalreporter.write_line(line)
