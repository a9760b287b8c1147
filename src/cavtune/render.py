"""Deterministic SVG line plots and PPM heatmaps for emitted CSV files.

No plotting library is used: identical inputs must give byte-identical
output files.  Heatmaps use a monotone-luminance colormap ("heat":
black - red - yellow - white, or "gray") normalized to the per-map maximum.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from .errors import SchemaError

_WIDTH, _HEIGHT = 800, 560
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 36, 50
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _escape(text: str) -> str:
    """``text`` as XML character data, as ``xml.sax.saxutils.escape`` gives it;
    importing that would load urllib, http and ssl, about 7 MB, into the CLI."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _plot_span(label: str, values: np.ndarray, pad: float) -> tuple:
    """The plotted range of ``values``, widened by ``pad`` of its span at each end.

    A span within a few ulps is drawn like a flat one, from ``lo`` to
    ``lo + 1``: across a few ulps no tick step is both round and
    representable.  A range whose span or padded ends overflow a float is a
    :class:`SchemaError` naming ``label``.
    """
    lo, hi = float(values.min()), float(values.max())
    if hi - lo <= 4.0 * np.spacing(max(abs(lo), abs(hi))):
        hi = lo + 1.0
    margin = pad * (hi - lo)
    lo, hi = lo - margin, hi + margin
    if not np.isfinite(hi - lo):
        raise SchemaError(f"{label}: the plot range of {values.min()} to {values.max()} "
                          f"overflows a float")
    return lo, hi


def _ticks(lo: float, hi: float, n: int = 6):
    """Round values in ``[lo, hi]``, at most ``n`` of them."""
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = float(mult * mag)  # Python floats: a k * step past the largest is inf
            break
    first = float(np.ceil(lo / step)) * step
    ticks = []
    for k in range(n):  # step >= (hi - lo) / (n - 1): no more than n ticks fit
        v = first + k * step
        if not v <= hi + 1e-12 * abs(step):  # a nan tick ends the axis too
            break
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
    return ticks


def _fmt_tick(v: float) -> str:
    return f"{v:.6g}"


def _require_finite(name: str, values: np.ndarray) -> None:
    """A :class:`SchemaError` naming ``name`` if one of ``values`` is NaN or +-inf."""
    bad = values[~np.isfinite(values)]
    if bad.size:
        raise SchemaError(f"{name}: not a finite number: {bad[0]}")


def render_curve_svg(x, series, x_label: str, y_label: str, title: str = "") -> str:
    """SVG 1.1 line plot; ``series`` is a list of (name, values) pairs, all finite.

    The title, the axis labels and the series names are escaped as XML text.
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0 or not series:
        raise SchemaError("no data to plot")
    _require_finite(x_label, x)
    ys = [np.asarray(v, dtype=float) for _, v in series]
    for (name, _), y in zip(series, ys):
        if y.size != x.size:
            raise SchemaError("series length does not match the x grid")
        _require_finite(name, y)
    x_lo, x_hi = _plot_span(x_label, x, 0.0)
    y_lo, y_hi = _plot_span(y_label, np.concatenate(ys), 0.04)

    def sx(v):
        return _MARGIN_L + (v - x_lo) / (x_hi - x_lo) * (_WIDTH - _MARGIN_L - _MARGIN_R)

    def sy(v):
        return _HEIGHT - _MARGIN_B - (v - y_lo) / (y_hi - y_lo) * (_HEIGHT - _MARGIN_T - _MARGIN_B)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.1f}" y="22" text-anchor="middle" '
            f'font-family="monospace" font-size="14">{_escape(title)}</text>'
        )
    axis_color = "#333333"
    x0, y0 = _MARGIN_L, _HEIGHT - _MARGIN_B
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{_WIDTH - _MARGIN_R}" y2="{y0}" '
        f'stroke="{axis_color}" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{_MARGIN_T}" '
        f'stroke="{axis_color}" stroke-width="1"/>'
    )
    for t in _ticks(x_lo, x_hi):
        px = sx(t)
        parts.append(
            f'<line x1="{px:.2f}" y1="{y0}" x2="{px:.2f}" y2="{y0 + 5}" stroke="{axis_color}"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{y0 + 18}" text-anchor="middle" '
            f'font-family="monospace" font-size="11">{_fmt_tick(t)}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        py = sy(t)
        parts.append(
            f'<line x1="{x0 - 5}" y1="{py:.2f}" x2="{x0}" y2="{py:.2f}" stroke="{axis_color}"/>'
        )
        parts.append(
            f'<text x="{x0 - 8}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="monospace" font-size="11">{_fmt_tick(t)}</text>'
        )
    parts.append(
        f'<text x="{(_MARGIN_L + _WIDTH - _MARGIN_R) / 2:.1f}" y="{_HEIGHT - 12}" '
        f'text-anchor="middle" font-family="monospace" font-size="12">{_escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="16" y="{(_MARGIN_T + _HEIGHT - _MARGIN_B) / 2:.1f}" text-anchor="middle" '
        f'font-family="monospace" font-size="12" transform="rotate(-90 16 '
        f'{(_MARGIN_T + _HEIGHT - _MARGIN_B) / 2:.1f})">{_escape(y_label)}</text>'
    )
    for k, (name, y) in enumerate(series):
        color = _COLORS[k % len(_COLORS)]
        points = " ".join(f"{sx(xv):.2f},{sy(yv):.2f}" for xv, yv in zip(x, np.asarray(y)))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_WIDTH - _MARGIN_R - 6}" y="{_MARGIN_T + 16 + 16 * k}" '
            f'text-anchor="end" font-family="monospace" font-size="11" '
            f'fill="{color}">{_escape(name)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _colormap(values: np.ndarray, colormap: str) -> np.ndarray:
    t = np.clip(values, 0.0, 1.0)
    rgb = np.empty(t.shape + (3,), dtype=np.uint8)
    if colormap == "gray":
        rgb[...] = np.rint(t * 255)[..., None]
        return rgb
    # "heat": black -> red -> yellow -> white, monotone luminance
    for k in range(3):
        rgb[..., k] = np.rint(np.clip(3.0 * t - k, 0.0, 1.0) * 255)
    return rgb


def render_heatmap_ppm(
    intensity: np.ndarray, colormap: str = "heat", log_scale: bool = False
) -> bytes:
    """Binary PPM (P6) heatmap of finite intensities; the first row is at the bottom."""
    z = np.asarray(intensity, dtype=float)
    if z.ndim != 2 or z.size == 0:
        raise SchemaError("heatmap needs a non-empty 2D intensity array")
    _require_finite("heatmap intensity", z)
    peak = z.max()
    if peak <= 0.0:
        raise SchemaError("heatmap input is empty (all intensities are zero)")
    if log_scale:
        floor = peak * 1e-6
        norm = (np.log10(np.clip(z, floor, None)) - np.log10(floor)) / (
            np.log10(peak) - np.log10(floor)
        )
    else:
        norm = z / peak
    rgb = _colormap(norm[::-1, :], colormap)
    h, w = rgb.shape[:2]
    return b"P6\n%d %d\n255\n" % (w, h) + rgb.tobytes()


def _cell_value(cell: str, name, line: int, column: str) -> float:
    """One cell of :func:`read_csv_table`: NaN if empty, else a finite number."""
    if not cell.strip():
        return math.nan
    try:
        value = float(cell)
    except ValueError:
        value = math.nan
    if math.isfinite(value):
        return value
    raise SchemaError(f"{name}: line {line}, column {column!r}: not a finite number: "
                      f"{cell.strip()!r}")


def source_name(source) -> str:
    """How an error names ``source``: a path as given, a stream by its ``name``."""
    return getattr(source, "name", "<stream>") if hasattr(source, "read") else source


def read_csv_table(source) -> tuple[list, list, np.ndarray]:
    """Parse a CSV table of numbers into ``(header, line_numbers, cells)``.

    ``source`` is a path, read as UTF-8 with or without a byte-order mark, or a
    text stream.  Header cells are stripped and blank lines skipped; an empty
    cell is NaN.  A row whose width is not the header's, a cell that is not a
    finite number and a file that cannot be read as UTF-8 CSV are a :class:`SchemaError`
    naming the file, and the line and column where there are any.
    """
    if not hasattr(source, "read"):
        try:
            with open(source, "r", encoding="utf-8-sig") as fh:
                return read_csv_table(fh)
        except OSError as exc:
            raise SchemaError(f"{source}: cannot read: {exc}") from None
    name = source_name(source)
    reader = csv.reader(source)
    rows, line_numbers = [], []
    try:
        header = [cell.strip() for cell in next(reader, [])]
        for line, row in enumerate(reader, start=2):
            try:  # a row of finite numbers parses in one pass
                values = [float(cell) for cell in row]
            except ValueError:
                values = []
            if len(values) != len(header) or not math.isfinite(sum(values)):
                if not any(cell.strip() for cell in row):
                    continue
                if len(row) != len(header):
                    raise SchemaError(f"{name}: line {line}: expected {len(header)} cells, "
                                      f"got {len(row)}")
                values = [_cell_value(cell, name, line, col) for cell, col in zip(row, header)]
            rows.append(values)
            line_numbers.append(line)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise SchemaError(f"{name}: cannot read as UTF-8 CSV: {exc}") from None
    return header, line_numbers, np.array(rows, dtype=float).reshape(len(rows), len(header))


def sniff_csv(path) -> tuple[str, list, np.ndarray]:
    """Classify an emitted CSV as ``"map"`` or ``"curve"`` and parse it.

    A cell that is empty or not a finite number (``nan``, ``inf``) is a
    :class:`SchemaError` that names its line and column.
    """
    header, line_numbers, data = read_csv_table(path)
    if not len(data):
        raise SchemaError(f"{path}: no data rows")
    empty = np.argwhere(np.isnan(data))
    if empty.size:
        i, j = empty[0]
        raise SchemaError(f"{path}: line {line_numbers[i]}, column {header[j]!r}: empty cell")
    if header == ["t_ps", "lambda_nm", "intensity_au"]:
        return "map", header, data
    if header[0] in ("t_ps", "detuning_nm", "control_nm", "control", "index"):
        return "curve", header, data
    raise SchemaError(f"{path}: unrecognized CSV layout with header {header}")


def render_csv_file(path, out_path, colormap: str = "heat", log_scale: bool = False) -> Path:
    """Render an emitted CSV: a map to a PPM heatmap, a curve or sweep to an SVG plot.

    The CSV's layout alone decides the format, whatever ``out_path``'s suffix.
    A map must hold its full grid t-major, as ``runs.write_map_csv`` writes it:
    every wavelength in ascending order at each time, the times ascending.
    """
    kind, header, data = sniff_csv(path)
    out_path = Path(out_path)
    if kind == "map":
        t_vals = np.unique(data[:, 0])
        lam_vals = np.unique(data[:, 1])
        if not (
            np.array_equal(data[:, 0], np.repeat(t_vals, lam_vals.size))
            and np.array_equal(data[:, 1], np.tile(lam_vals, t_vals.size))
        ):
            raise SchemaError(f"{path}: map is not the full (t, lambda) grid in t-major order")
        grid = data[:, 2].reshape(t_vals.size, lam_vals.size)
        ppm = render_heatmap_ppm(grid, colormap=colormap, log_scale=log_scale)
        out_path.write_bytes(ppm)
        return out_path
    x = data[:, 0]
    series = [(name, data[:, i + 1]) for i, name in enumerate(header[1:])]
    svg = render_curve_svg(x, series, x_label=header[0], y_label=header[1], title=Path(path).name)
    out_path.write_text(svg, encoding="utf-8")
    return out_path
