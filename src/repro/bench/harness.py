"""Table formatting, result containers and the timing profile for the
benchmark drivers."""

import contextlib
import os

from repro.cluster import timing


def full_mode():
    """True when REPRO_BENCH_FULL=1: run at the paper's scale."""
    return os.environ.get("REPRO_BENCH_FULL", "") == "1"


@contextlib.contextmanager
def hardware_profile(**overrides):
    """Override ``cluster/timing.py`` constants for the block: they are
    read at run time, so simulations inside it see the new hardware (§6's
    ConnectX-6 profile) or a cost taken away (Fig 12a's factor rows).  A
    name ``timing`` does not define is refused before anything is set,
    and every constant is restored however the block exits."""
    saved = {name: getattr(timing, name) for name in overrides}
    for name, value in overrides.items():
        setattr(timing, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(timing, name, value)


class SteadyRate:
    """Steady-state throughput from per-client completion windows.

    A client's window opens at its first measured completion (not
    counted) and closes at its last; the rate is the sum over clients of
    ``count / span`` in ops per second, so the in-flight work at the
    window's edges does not bias it.
    """

    def __init__(self):
        self.windows = {}  # client -> (first_ns, count, last_ns)

    def add(self, client, now, ops=1):
        entry = self.windows.get(client)
        self.windows[client] = (now, 0, now) if entry is None else (entry[0], entry[1] + ops, now)

    def per_s(self):
        rate = 0.0
        for start, count, last in self.windows.values():
            if count and last > start:
                rate += count / ((last - start) / 1e9)
        return rate


class Table:
    """A printable table of benchmark rows."""

    def __init__(self, title, headers):
        self.title = title
        self.headers = list(headers)
        self.rows = []

    def add_row(self, *values):
        if len(values) != len(self.headers):
            raise ValueError(
                f"row has {len(values)} values for {len(self.headers)} headers"
            )
        self.rows.append([_fmt(value) for value in values])

    def render(self):
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = [self.title]
        lines.append("  " + "  ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append("  " + "  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  " + "  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def to_csv(self):
        """The table as CSV text (for plotting outside this repo)."""
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self.headers)
        for row in self.rows:
            writer.writerow(row)
        return buffer.getvalue()


def _fmt(value):
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3g}"
    return str(value)


class FigureResult:
    """Everything one figure reproduction produced."""

    def __init__(self, name, description):
        self.name = name
        self.description = description
        self.tables = []
        self.metrics = {}

    def table(self, title, headers):
        table = Table(title, headers)
        self.tables.append(table)
        return table

    def render(self):
        parts = [f"== {self.name}: {self.description} =="]
        for table in self.tables:
            parts.append(table.render())
        return "\n\n".join(parts)

    def show(self):
        print("\n" + self.render() + "\n")

    def save_csv(self, directory, stem):
        """Write each table as ``<stem>-<n>.csv`` under ``directory``."""
        import pathlib

        directory = pathlib.Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for index, table in enumerate(self.tables):
            path = directory / f"{stem}-{index}.csv"
            path.write_text(table.to_csv())
            paths.append(path)
        return paths
