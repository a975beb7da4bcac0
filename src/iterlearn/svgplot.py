"""Minimal self-contained SVG renderer for convergence curves.

Writes a log-scale error-versus-iteration overlay without any plotting
dependency.  Values are floored at 1e-16 before taking logs.
"""

from __future__ import annotations

import math

import numpy as np

from .textfmt import format_f2

__all__ = ["render_convergence_svg", "write_convergence_svg", "LOG_FLOOR"]

LOG_FLOOR = 1e-16

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
    "#bcbd22",
    "#e377c2",
)

_WIDTH, _HEIGHT = 880, 540
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 30, 50


_XML_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _xml_text(text: str) -> str:
    """``text`` as element content: markup escaped, and every non-ASCII
    character a character reference, so the document is ASCII."""
    return text.translate(_XML_ESCAPES).encode("ascii", "xmlcharrefreplace").decode("ascii")


def _nice_ticks(lo: float, hi: float, count: int = 6) -> list[int]:
    span = max(hi - lo, 1)
    step = max(1, int(round(span / max(count - 1, 1))))
    ticks = list(range(int(lo), int(hi) + 1, step))
    if ticks[-1] != int(hi):
        ticks.append(int(hi))
    return ticks


def render_convergence_svg(
    curves: list[tuple[str, "np.ndarray | list[float]"]], title: str = ""
) -> str:
    """Render labelled error curves into an SVG document string.

    ``curves`` is a list of ``(label, values)``; the y axis is log10 with
    a hard floor at ``LOG_FLOOR``.
    """
    if not curves:
        raise ValueError("need at least one curve to plot")
    lengths = [len(vals) for _, vals in curves]
    if min(lengths) < 1:
        raise ValueError("curves must be non-empty")
    n_max = max(lengths)

    # every curve's logs in one array; math.log10, as np.log10 may round
    # differently
    values = np.concatenate([np.asarray(vals, float) for _, vals in curves])
    floored = np.maximum(np.abs(values), LOG_FLOOR)
    logs = np.fromiter(map(math.log10, floored.tolist()), float, len(floored))
    y_lo = math.floor(np.fmin.reduce(logs))  # fmin and fmax leave NaN out
    y_hi = math.ceil(np.fmax.reduce(logs))
    if y_hi == y_lo:
        y_hi += 1

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def x_of(k: float) -> float:
        return _MARGIN_L + plot_w * (k / max(n_max - 1, 1))

    def y_of(logv: float) -> float:
        return _MARGIN_T + plot_h * (y_hi - logv) / (y_hi - y_lo)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{_xml_text(title)}</text>'
        )

    # gridlines and axis labels
    for decade in range(y_lo, y_hi + 1):
        y = y_of(decade)
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{y:.1f}" x2="{_WIDTH - _MARGIN_R}" '
            f'y2="{y:.1f}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">1e{decade}</text>'
        )
    for tick in _nice_ticks(0, n_max - 1):
        x = x_of(tick)
        parts.append(
            f'<line x1="{x:.1f}" y1="{_HEIGHT - _MARGIN_B}" x2="{x:.1f}" '
            f'y2="{_HEIGHT - _MARGIN_B + 5}" stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{_HEIGHT - _MARGIN_B + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tick}</text>'
        )
    parts.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">iteration k</text>'
    )
    parts.append(
        f'<text x="16" y="{_MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {_MARGIN_T + plot_h / 2:.1f})">max abs tracking error</text>'
    )

    # x_of and y_of over whole arrays: the same operations in the same
    # order, so the same coordinates
    xy = np.empty((len(logs), 2))
    k = np.concatenate([np.arange(n) for n in lengths])
    xy[:, 0] = _MARGIN_L + plot_w * (k / max(n_max - 1, 1))
    xy[:, 1] = _MARGIN_T + plot_h * (y_hi - logs) / (y_hi - y_lo)
    points = format_f2(xy, b", ")
    # each point's text ends in the one space, so a curve's last point
    # ends at the space numbered by the running count of points
    ends = np.flatnonzero(np.frombuffer(points, np.uint8) == ord(" "))[np.cumsum(lengths) - 1]
    starts = [0, *(ends[:-1] + 1).tolist()]
    for idx, ((label, _vals), start, end) in enumerate(zip(curves, starts, ends.tolist())):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = points[start:end].decode("ascii")  # no space after the last point
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = _MARGIN_T + 16 + 16 * idx
        lx = _WIDTH - _MARGIN_R - 220
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 30}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{_xml_text(label)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_convergence_svg(path, curves, title: str = "") -> None:
    document = render_convergence_svg(curves, title=title).encode("ascii")
    with open(path, "wb") as fh:
        fh.write(document)
