"""Minimal dependency-free SVG line plots for sweep diagnostics."""

import math

__all__ = ["write_loglog_svg"]

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _decades(lo, hi):
    return range(int(math.ceil(lo)), int(math.floor(hi)) + 1)


def write_loglog_svg(path, xs, series, title=""):
    """Write a 640x420 log-log polyline plot; series is a list of (label, ys) pairs.

    Non-positive or non-finite points are dropped per series. Returns path.
    """
    width, height = 640, 420
    ml, mr, mt, mb = 64, 16, 28, 40
    pts = []
    for label, ys in series:
        pp = [
            (math.log10(x), math.log10(y))
            for x, y in zip(xs, ys)
            if x > 0 and y > 0 and math.isfinite(x) and math.isfinite(y)
        ]
        pts.append((label, pp))
    allx = [p[0] for _, pp in pts for p in pp]
    ally = [p[1] for _, pp in pts for p in pp]
    if not allx:
        allx, ally = [0.0, 1.0], [0.0, 1.0]
    x0, x1 = min(allx), max(allx)
    y0, y1 = min(ally), max(ally)
    if x1 - x0 < 1e-12:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 - y0 < 1e-12:
        y0, y1 = y0 - 0.5, y1 + 0.5
    padx, pady = 0.05 * (x1 - x0), 0.05 * (y1 - y0)
    x0, x1, y0, y1 = x0 - padx, x1 + padx, y0 - pady, y1 + pady

    def px(lx):
        return ml + (lx - x0) / (x1 - x0) * (width - ml - mr)

    def py(ly):
        return height - mb - (ly - y0) / (y1 - y0) * (height - mt - mb)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="18" text-anchor="middle" font-size="13" font-family="sans-serif">{title}</text>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>',
    ]
    for k in _decades(x0, x1):
        X = px(k)
        out.append(f'<line x1="{X:.1f}" y1="{height - mb}" x2="{X:.1f}" y2="{mt}" stroke="#dddddd"/>')
        out.append(
            f'<text x="{X:.1f}" y="{height - mb + 16}" text-anchor="middle" font-size="11" font-family="sans-serif">1e{k}</text>'
        )
    for k in _decades(y0, y1):
        Y = py(k)
        out.append(f'<line x1="{ml}" y1="{Y:.1f}" x2="{width - mr}" y2="{Y:.1f}" stroke="#dddddd"/>')
        out.append(
            f'<text x="{ml - 6}" y="{Y + 4:.1f}" text-anchor="end" font-size="11" font-family="sans-serif">1e{k}</text>'
        )
    for idx, (label, pp) in enumerate(pts):
        color = _PALETTE[idx % len(_PALETTE)]
        if pp:
            path_d = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in pp)
            out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{path_d}"/>')
        ly = mt + 14 + 16 * idx
        out.append(f'<rect x="{width - mr - 150}" y="{ly - 9}" width="10" height="10" fill="{color}"/>')
        out.append(
            f'<text x="{width - mr - 136}" y="{ly}" font-size="11" font-family="sans-serif">{label}</text>'
        )
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out))
    return path
