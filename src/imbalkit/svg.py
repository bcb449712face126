"""Minimal deterministic SVG 1.1 emitters (no timestamps, fixed precision)."""

from __future__ import annotations

import numpy as np

__all__ = ["bar_chart_svg", "heatmap_svg", "roc_svg"]


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _esc(s) -> str:
    return (str(s).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;"))


def _element(tag: str, attrs: dict, body=None) -> str:
    """One element per line, attributes in the mapping's order (None ones left out),
    every value and the body escaped; self-closing when there is no body."""
    head = tag + "".join(f' {name}="{_esc(value)}"' for name, value in attrs.items()
                         if value is not None)
    if body is None:
        return f"<{head}/>\n"
    return f"<{head}>{_esc(body)}</{tag}>\n"


def _text(x, y, size: int, body, anchor: str | None = None, rotate: int | None = None) -> str:
    """A sans-serif <text> at (x, y), optionally anchored and rotated about (x, y)."""
    transform = None if rotate is None else f"rotate({rotate} {x} {y})"
    return _element("text", {"x": x, "y": y, "text-anchor": anchor, "font-family": "sans-serif",
                             "font-size": size, "transform": transform}, body)


def _document(width, height, parts: list[str]) -> str:
    """The XML header and <svg> root on a white background around the parts."""
    return "".join([
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">\n',
        _element("rect", {"width": width, "height": height, "fill": "#ffffff"}), *parts, "</svg>\n",
    ])


def bar_chart_svg(labels, values, title: str = "", width: int = 640) -> str:
    values = np.asarray(values, dtype=float)
    n = len(labels)
    if values.shape != (n,):
        raise ValueError(f"bar chart needs one value per label: {n} labels, values {values.shape}")
    row_h, left = 22, 220
    vmax = float(np.max(np.abs(values))) if n else 1.0
    vmax = vmax if vmax > 0 else 1.0
    scale = (width - left - 30) / vmax
    parts = [_text(10, 22, 14, title)]
    for i, (label, v) in enumerate(zip(labels, values)):
        y = 40 + i * row_h
        w = abs(v) * scale
        parts.append(_text(left - 8, y + 14, 11, label, anchor="end"))
        parts.append(_element("rect", {"x": left, "y": y, "width": _fmt(w), "height": row_h - 6,
                                       "fill": "#4878a8" if v >= 0 else "#c44e52"}))
        parts.append(_text(_fmt(left + w + 4), y + 14, 10, f"{v:.4f}"))
    return _document(width, 50 + n * row_h, parts)


def _heat_color(v: float) -> str:
    """0 -> white, 1 -> deep blue."""
    v = min(max(v, 0.0), 1.0)
    return "#" + "".join(f"{round(255 - k * v):02x}" for k in (183, 135, 87))  # r, g, b


def heatmap_svg(matrix, labels, title: str = "") -> str:
    M = np.asarray(matrix, dtype=float)
    n = len(labels)
    if M.shape != (n, n) and (n or M.size):  # no labels and an empty matrix: no cell
        raise ValueError(f"heatmap needs a {n}x{n} matrix for {n} labels, not shape {M.shape}")
    cell, left, top = 26, 180, 170
    parts = [_text(10, 22, 14, title)]
    for i, label in enumerate(labels):
        parts.append(_text(left - 6, top + i * cell + 17, 10, label, anchor="end"))
        parts.append(_text(_fmt(left + i * cell + cell / 2), top - 6, 10, label, rotate=-60))
    for i in range(n):
        for j in range(n):
            x, y = left + j * cell, top + i * cell
            parts.append(_element("rect", {"x": x, "y": y, "width": cell, "height": cell,
                                           "fill": _heat_color(M[i, j]), "stroke": "#dddddd"}))
            parts.append(_text(x + cell // 2, y + 17, 8, f"{M[i, j]:.2f}", anchor="middle"))
    return _document(left + n * cell + 30, top + n * cell + 30, parts)


_CURVE_COLORS = ["#4878a8", "#ee854a", "#6acc64", "#d65f5f", "#956cb4",
                 "#8c613c", "#dc7ec0", "#797979", "#d5bb67", "#82c6e2"]


def roc_svg(curves: dict, width: int = 520, height: int = 520) -> str:
    """curves: name -> (fpr array, tpr array, auc)."""
    pad = 50
    plot = width - 2 * pad

    def xy(fpr, tpr) -> tuple[str, str]:
        return _fmt(pad + fpr * plot), _fmt(height - pad - tpr * plot)

    (x1, y1), (x2, y2) = xy(0, 0), xy(1, 1)
    parts = [
        _element("rect", {"x": pad, "y": pad, "width": plot, "height": height - 2 * pad,
                          "fill": "none", "stroke": "#333333"}),
        _element("line", {"x1": x1, "y1": y1, "x2": x2, "y2": y2,
                          "stroke": "#aaaaaa", "stroke-dasharray": "4 4"}),
        _text(width // 2, height - 12, 12, "false positive rate", anchor="middle"),
        _text(16, height // 2, 12, "true positive rate", anchor="middle", rotate=-90),
    ]
    for k, (name, (fpr, tpr, auc)) in enumerate(sorted(curves.items())):
        color = _CURVE_COLORS[k % len(_CURVE_COLORS)]
        y_leg = 60 + 16 * k
        points = " ".join(",".join(xy(f, t)) for f, t in zip(fpr, tpr))
        parts.append(_element("polyline", {"points": points, "fill": "none", "stroke": color,
                                           "stroke-width": "1.5"}))
        parts.append(_element("rect", {"x": width - 250, "y": y_leg - 10, "width": 12,
                                       "height": 12, "fill": color}))
        parts.append(_text(width - 232, y_leg, 11, f"{name} (AUC {auc:.4f})"))
    return _document(width, height, parts)
