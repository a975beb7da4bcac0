import math

import numpy as np
import pytest

from iterlearn.svgplot import (
    _HEIGHT,
    _MARGIN_B,
    _MARGIN_L,
    _MARGIN_R,
    _MARGIN_T,
    _PALETTE,
    _WIDTH,
    LOG_FLOOR,
    _nice_ticks,
    render_convergence_svg,
)


def reference_render(curves, title=""):
    """The renderer as first written, one formatted pair per point, kept as
    the oracle."""
    if not curves:
        raise ValueError("need at least one curve to plot")
    n_max = max(len(vals) for _, vals in curves)
    if n_max < 1:
        raise ValueError("curves must be non-empty")

    logs = []
    for _, vals in curves:
        logs.append([math.log10(max(abs(v), LOG_FLOOR)) for v in vals])
    y_lo = math.floor(min(min(ls) for ls in logs))
    y_hi = math.ceil(max(max(ls) for ls in logs))
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
            f'font-family="sans-serif" font-size="14">{title}</text>'
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

    for idx, ((label, _vals), ls) in enumerate(zip(curves, logs)):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{x_of(k):.2f},{y_of(v):.2f}" for k, v in enumerate(ls))
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
            f'font-size="11">{label}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def curve(rng, n, low=-14, high=2):
    """``n`` error values spread over ``10**low .. 10**high``, signs mixed."""
    return (np.sign(rng.standard_normal(n)) * 10 ** rng.uniform(low, high, n)).tolist()


def test_renderer_matches_reference_bytes():
    rng = np.random.default_rng(3)
    cases = [
        [("one point", [0.5])],
        [("zeros", [0.0, 0.0, 1.0, 0.0])],
        [("below floor", [1e-20, 5e-324, -1e-17, LOG_FLOOR, 0.0])],
        [("a", curve(rng, 50)), ("b", curve(rng, 7)), ("c", [2.0])],
        [(f"seed {i}", curve(rng, int(rng.integers(1, 300)))) for i in range(12)],
        [("flat", [1.0] * 20)],
        [("nan inside", [1.0, np.nan, 0.01]), ("nan", [2.0, np.nan])],
        [("long", curve(rng, 2000, -300, 300)), ("numpy", np.abs(curve(rng, 2000)))],
    ]
    for curves in cases:
        for title in ("", "convergence"):
            assert render_convergence_svg(curves, title) == reference_render(curves, title)


def test_renderer_rejects_what_the_reference_rejects():
    for curves in ([], [("empty", [])]):
        with pytest.raises(ValueError):
            reference_render(curves)
        with pytest.raises(ValueError):
            render_convergence_svg(curves)
