"""Shared pytest hooks.

The acceptance tests record their ``criterion N: PASS/FAIL`` lines in
``acceptance_lines.ACCEPTANCE_LINES``; echoing them from a terminal-summary
hook keeps the scoreboard visible in a default (captured) pytest run, where
stdout of passing tests would otherwise be swallowed.
"""

from acceptance_lines import ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(
            ACCEPTANCE_LINES, key=lambda s: int(s.split(":")[0].split()[1])
        ):
            terminalreporter.line(line)
