"""Shared test configuration, the flow's pointwise right-hand side and
the acceptance-line reporter."""

from hypothesis import HealthCheck, settings

from eqflow.geometry import GraphGrid, graph_terms

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def flow_rhs(space, profile, avg_H):
    """Pointwise time derivative of the radii for a given average: the
    local term plus avg_H |c'|/f, from the flow's own graph terms."""
    g = GraphGrid(space, profile)
    t = graph_terms(g, profile.r)
    return t.local + avg_H * t.speed / g.f


# One line per acceptance criterion, echoed after capture ends so the
# verdicts are visible in a plain `pytest -v` log.
ACCEPTANCE_LINES: list[str] = []


def criterion(num: int, passed: bool, detail: str) -> bool:
    line = f"criterion {num}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line, flush=True)
    ACCEPTANCE_LINES.append(line)
    return passed


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES,
                           key=lambda s: int(s.split()[1].rstrip(":"))):
            terminalreporter.write_line(line)
