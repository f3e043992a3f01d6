"""Collapse and decoupling instrumentation for embedding batches.

``embedding_variance`` detects complete collapse (a constant output
vector scores 0; a maximally spread unit-norm batch scores near 1),
``covariance_spectrum`` + ``effective_rank`` quantify dimensional
collapse, and ``alignment`` tracks how well positive pairs agree.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .linalg import symmetric_eigenvalues
from .losses import find_constant_columns


class DiagnosticsError(Exception):
    pass


def embedding_variance(batch: np.ndarray) -> float:
    """Spread of a batch of output vectors, on a roughly [0, 1] scale.

    Each row is scaled to unit norm (the "normalized output vector"),
    then per-coordinate variances across the batch are summed, i.e.
    d * mean coordinate variance.  Identical rows give exactly 0; m = d
    distinct basis vectors give (d - 1) / d.
    """
    z = np.asarray(batch, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] < 2:
        raise DiagnosticsError(f"need an (m >= 2) x d batch, got shape {z.shape}")
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise DiagnosticsError("zero-norm output vector cannot be normalized")
    z = z / norms
    per_coordinate = z.var(axis=0)
    # a constant column scores exactly 0, whatever rounding the mean
    # leaves.  normalize_columns aborts a run by the same rule, but on each
    # raw view, not on both views' unit rows stacked: a column constant in
    # one view only aborts a run yet scores here
    per_coordinate[find_constant_columns(z)] = 0.0
    return float(per_coordinate.sum())


def covariance_spectrum(batch: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of the d x d sample covariance."""
    z = np.asarray(batch, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] < 2:
        raise DiagnosticsError(f"need an (m >= 2) x d batch, got shape {z.shape}")
    centered = z - z.mean(axis=0)
    cov = centered.T @ centered / (z.shape[0] - 1)
    cov = 0.5 * (cov + cov.T)  # symmetrize away accumulation rounding
    return np.maximum(symmetric_eigenvalues(cov), 0.0)


def effective_rank(eigenvalues: np.ndarray) -> float:
    """exp(entropy) of the normalized spectrum: 1 for rank-1 collapse,
    d for a perfectly isotropic d-dimensional spread."""
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if lam.size == 0 or np.any(lam < 0):
        raise DiagnosticsError("spectrum must be non-empty and non-negative")
    total = lam.sum()
    if total == 0.0:
        raise DiagnosticsError("all-zero spectrum has no effective rank")
    p = lam / total
    p = p[p > 0.0]
    return float(np.exp(-(p * np.log(p)).sum()))


def alignment(z1: np.ndarray, z2: np.ndarray) -> float:
    """Mean cosine similarity between paired rows of two batches."""
    a = np.asarray(z1, dtype=np.float64)
    b = np.asarray(z2, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2:
        raise DiagnosticsError(f"paired batches must share a 2-D shape, got {a.shape}, {b.shape}")
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    if np.any(na == 0.0) or np.any(nb == 0.0):
        raise DiagnosticsError("zero-norm row in alignment input")
    return float(np.mean((a * b).sum(axis=1) / (na * nb)))


# ---------------------------------------------------------------------
# per-epoch report and metrics file
# ---------------------------------------------------------------------

METRICS_COLUMNS = ("epoch", "lambda", "loss_total", "loss_w", "loss_c",
                   "variance", "effective_rank", "alignment", "wall_ms")


@dataclass
class DiagnosticsReport:
    epoch: int
    lam: float
    loss_total: float
    loss_w: float
    loss_c: float
    variance: float
    effective_rank: float
    alignment: float
    wall_ms: float = 0.0
    eigenvalues: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def record(self) -> dict:
        """The report's ``metrics.csv`` row: the fields in column order, but
        the spectrum."""
        return dict(zip(METRICS_COLUMNS, vars(self).values()))


def compute_report(epoch: int, lam: float, losses: tuple[float, float, float],
                   z1: np.ndarray, z2: np.ndarray, wall_ms: float = 0.0) -> DiagnosticsReport:
    """Assemble the standard per-epoch report from whitening-head outputs."""
    stacked = np.concatenate([z1, z2], axis=0)
    spectrum = covariance_spectrum(stacked)
    total, loss_w, loss_c = losses
    return DiagnosticsReport(
        epoch=int(epoch), lam=float(lam), loss_total=float(total), loss_w=float(loss_w),
        loss_c=float(loss_c),
        variance=embedding_variance(stacked),
        effective_rank=effective_rank(spectrum) if spectrum.sum() > 0 else 1.0,
        alignment=alignment(z1, z2),
        wall_ms=float(wall_ms), eigenvalues=spectrum,
    )


def append_row(path, row: dict) -> None:
    """Append ``row`` to a CSV file, its keys the header of a fresh file:
    the one writer of ``metrics.csv``, ``diagnostics.csv``, ``eval.csv`` and
    ``sweep.csv``, in the csv module's default dialect, floats as ``repr``."""
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if fh.tell() == 0:
            writer.writerow(row)
        writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row.values()])


def read_rows(path, columns=()) -> list[dict]:
    """The rows of a CSV file ``append_row`` wrote, as dicts of strings; a
    header without every one of ``columns``, or a row cut short, raises
    DiagnosticsError naming the file."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in columns if c not in (reader.fieldnames or ())]
        if missing:
            raise DiagnosticsError(f"{path}: header lacks column(s) {', '.join(missing)}")
        rows = list(reader)
    if any(None in row.values() for row in rows):
        raise DiagnosticsError(f"{path}: a row is shorter than the header")
    return rows


# ---------------------------------------------------------------------
# minimal SVG line charts (no plotting dependency)
# ---------------------------------------------------------------------


def write_line_chart_svg(path, series: dict[str, list[float]], title: str = "",
                         width: int = 640, height: int = 360) -> None:
    """Render named series as polylines with auto-scaled axes."""
    if not series:
        raise DiagnosticsError("no series to plot")
    pad = 40
    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
    all_vals = [v for vals in series.values() for v in vals if np.isfinite(v)]
    if not all_vals:
        raise DiagnosticsError("series contain no finite values")
    lo, hi = min(all_vals), max(all_vals)
    if hi == lo:
        hi = lo + 1.0
    n = max(len(v) for v in series.values())

    def sx(i):
        return pad + (width - 2 * pad) * (i / max(n - 1, 1))

    def sy(v):
        return height - pad - (height - 2 * pad) * ((v - lo) / (hi - lo))

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>']
    parts.append(f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" '
                 'stroke="black"/>')
    parts.append(f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>')
    parts.append(f'<text x="{pad - 5}" y="{height - pad}" text-anchor="end" font-size="10">'
                 f'{lo:.3g}</text>')
    parts.append(f'<text x="{pad - 5}" y="{pad + 4}" text-anchor="end" font-size="10">'
                 f'{hi:.3g}</text>')
    for idx, (name, vals) in enumerate(series.items()):
        color = colors[idx % len(colors)]
        points = " ".join(f"{sx(i):.1f},{sy(v):.1f}" for i, v in enumerate(vals)
                          if np.isfinite(v))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{points}"/>')
        parts.append(f'<text x="{width - pad + 4}" y="{pad + 14 * idx + 10}" fill="{color}" '
                     f'font-size="11">{name}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
