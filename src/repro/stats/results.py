"""Result containers shared by the experiment runners and benchmarks.

The paper reports two kinds of results: *figures* (throughput series over a
swept parameter, for several protocol variants) and *tables* (per-node or
per-variant scalar metrics).  :class:`Series` and :class:`TableResult` model
those two shapes and render themselves as aligned plain-text tables so that
benchmark output can be compared side by side with the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


@dataclass
class Series:
    """One curve of a figure: y-values of one variant over the swept x-values.

    ``y_errors`` is optional and, when present, holds one symmetric error-bar
    half-width per point (the campaign layer stores 95% confidence intervals
    there after seed replication).
    """

    label: str
    x_values: List[float] = field(default_factory=list)
    y_values: List[float] = field(default_factory=list)
    y_errors: List[float] = field(default_factory=list)

    def add(self, x: float, y: float, error: Optional[float] = None) -> None:
        """Append a point (optionally with an error-bar half-width).

        Either every point of a series carries an error bar or none does;
        mixing the two would silently misalign ``y_errors`` with the points.
        """
        if error is None:
            if self.y_errors:
                raise ValueError(
                    f"series {self.label!r}: cannot mix points with and without error bars")
        elif len(self.y_errors) != len(self.x_values):
            raise ValueError(
                f"series {self.label!r}: cannot mix points with and without error bars")
        self.x_values.append(x)
        self.y_values.append(y)
        if error is not None:
            self.y_errors.append(error)

    def value_at(self, x: float) -> float:
        """The y-value recorded at ``x``, to within 1e-9 (raises if absent)."""
        for xv, yv in zip(self.x_values, self.y_values):
            if abs(xv - x) <= 1e-9:
                return yv
        raise KeyError(f"series {self.label!r} has no point at x={x}")

    @property
    def peak(self) -> float:
        """Largest y-value (0 when empty)."""
        return max(self.y_values) if self.y_values else 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible representation (inverse of :meth:`from_dict`)."""
        data: Dict[str, object] = {
            "label": self.label,
            "x_values": list(self.x_values),
            "y_values": list(self.y_values),
        }
        if self.y_errors:
            data["y_errors"] = list(self.y_errors)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Series":
        """Rebuild a series from :meth:`to_dict` output."""
        return cls(
            label=str(data["label"]),
            x_values=[float(x) for x in data.get("x_values", [])],
            y_values=[float(y) for y in data.get("y_values", [])],
            y_errors=[float(e) for e in data.get("y_errors", [])],
        )


@dataclass
class TableResult:
    """A table: named rows of named-column values."""

    title: str
    columns: List[str]
    rows: Dict[str, List[float]] = field(default_factory=dict)

    def add_row(self, name: str, values: Sequence[float]) -> None:
        """Add a row (must have one value per column)."""
        self.rows[name] = list(values)

    def cell(self, row: str, column: str) -> float:
        """Value at ``(row, column)``."""
        return self.rows[row][self.columns.index(column)]

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible representation (inverse of :meth:`from_dict`)."""
        return {
            "title": self.title,
            "columns": list(self.columns),
            "rows": {name: list(values) for name, values in self.rows.items()},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TableResult":
        """Rebuild a table from :meth:`to_dict` output."""
        rows = data.get("rows", {})
        return cls(
            title=str(data["title"]),
            columns=[str(c) for c in data.get("columns", [])],
            rows={str(name): [float(v) for v in values] for name, values in rows.items()},
        )

    def to_text(self) -> str:
        """Render the table as aligned plain text, values to three decimals."""
        header = [self.title] + list(self.columns)
        lines = ["  ".join(f"{h:>14}" for h in header)]
        for name, values in self.rows.items():
            cells = [f"{name:>14}"]
            for value in values:
                cells.append(f"{value:>14.3f}")
            lines.append("  ".join(cells))
        return "\n".join(lines)


@dataclass
class ExperimentResult:
    """The full outcome of one experiment (one paper figure or table)."""

    experiment_id: str
    description: str
    #: Figure-style results: one series per protocol variant.
    series: Dict[str, Series] = field(default_factory=dict)
    #: Table-style results.
    tables: List[TableResult] = field(default_factory=list)
    #: Free-form scalar observations (e.g. "max BA/UA gap %").
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def add_series(self, series: Series) -> Series:
        """Register a series under its label."""
        self.series[series.label] = series
        return series

    def get_series(self, label: str) -> Series:
        """Fetch a series by label."""
        return self.series[label]

    def add_table(self, table: TableResult) -> TableResult:
        """Register a table."""
        self.tables.append(table)
        return table

    def add_metric(self, name: str, value: float) -> None:
        """Record a scalar metric."""
        self.metrics[name] = value

    def note(self, text: str) -> None:
        """Attach a free-form note."""
        self.notes.append(text)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible representation (inverse of :meth:`from_dict`)."""
        return {
            "experiment_id": self.experiment_id,
            "description": self.description,
            "series": {label: series.to_dict() for label, series in self.series.items()},
            "tables": [table.to_dict() for table in self.tables],
            "metrics": dict(self.metrics),
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExperimentResult":
        """Rebuild a full experiment result from :meth:`to_dict` output."""
        result = cls(
            experiment_id=str(data["experiment_id"]),
            description=str(data.get("description", "")),
        )
        for label, series_data in data.get("series", {}).items():
            result.series[str(label)] = Series.from_dict(series_data)
        for table_data in data.get("tables", []):
            result.tables.append(TableResult.from_dict(table_data))
        result.metrics = {str(k): float(v) for k, v in data.get("metrics", {}).items()}
        result.notes = [str(n) for n in data.get("notes", [])]
        return result

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def to_text(self) -> str:
        """Render the whole result as plain text (benchmarks print this)."""
        lines = [f"== {self.experiment_id}: {self.description} =="]
        if self.series:
            x_values: Optional[List[float]] = None
            for series in self.series.values():
                x_values = series.x_values
                break
            header = ["x"] + [label for label in self.series]
            lines.append("  ".join(f"{h:>12}" for h in header))
            for i, x in enumerate(x_values or []):
                row = [f"{x:>12.3f}"]
                for series in self.series.values():
                    value = series.y_values[i] if i < len(series.y_values) else float("nan")
                    row.append(f"{value:>12.4f}")
                lines.append("  ".join(row))
        for table in self.tables:
            lines.append("")
            lines.append(table.to_text())
        if self.metrics:
            lines.append("")
            for name, value in self.metrics.items():
                lines.append(f"  {name}: {value:.4f}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)
