"""Procedural handwritten-digit generator (MNIST stand-in).

Each digit class is a hand-designed stroke glyph (a set of polyline
segments in a unit box).  A sample is produced by

1. rendering the glyph's *distance field* (precomputed once per class),
2. inking it with a per-sample stroke thickness and edge softness,
3. warping with a random affine map (rotation, anisotropic scale, shear,
   translation) via ``scipy.ndimage.affine_transform``,
4. adding slight blur and pixel noise.

The glyphs occupy the central region of the canvas with an empty border,
mirroring MNIST's centred digits — the property the paper's Sec. VI-C
uses to argue that input-layer synapses are comparatively resilient
(boundary pixels carry no information).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import DatasetError
from repro.rng import SeedLike, ensure_rng

Segment = Tuple[Tuple[float, float], Tuple[float, float]]


def _arc(cx: float, cy: float, rx: float, ry: float,
         deg0: float, deg1: float, n: int = 10) -> List[Segment]:
    """Polyline approximation of an elliptic arc (angles in degrees,
    measured clockwise from the +x axis in image coordinates)."""
    angles = np.radians(np.linspace(deg0, deg1, n + 1))
    xs = cx + rx * np.cos(angles)
    ys = cy + ry * np.sin(angles)
    return [((xs[i], ys[i]), (xs[i + 1], ys[i + 1])) for i in range(n)]


def _line(x0: float, y0: float, x1: float, y1: float) -> List[Segment]:
    return [((x0, y0), (x1, y1))]


def _build_glyphs() -> Dict[int, List[Segment]]:
    """Stroke skeletons for digits 0-9 in a unit box (x right, y down).

    Drawn to evoke ordinary handwriting; exact coordinates are not
    precious — classification robustness comes from the augmentation.
    """
    g: Dict[int, List[Segment]] = {}
    g[0] = _arc(0.5, 0.5, 0.30, 0.42, 0, 360, 20)
    g[1] = (_line(0.35, 0.28, 0.55, 0.10) + _line(0.55, 0.10, 0.55, 0.90)
            + _line(0.38, 0.90, 0.72, 0.90))
    g[2] = (_arc(0.5, 0.30, 0.28, 0.22, 180, 340, 10)
            + _line(0.76, 0.38, 0.25, 0.90) + _line(0.25, 0.90, 0.78, 0.90))
    g[3] = (_arc(0.48, 0.30, 0.26, 0.21, 150, 395, 10)
            + _arc(0.48, 0.70, 0.28, 0.23, 325, 570, 10))
    g[4] = (_line(0.62, 0.10, 0.20, 0.62) + _line(0.20, 0.62, 0.82, 0.62)
            + _line(0.62, 0.10, 0.62, 0.90))
    g[5] = (_line(0.75, 0.10, 0.30, 0.10) + _line(0.30, 0.10, 0.27, 0.45)
            + _arc(0.50, 0.65, 0.27, 0.25, 245, 480, 12))
    g[6] = (_arc(0.52, 0.62, 0.26, 0.27, 0, 360, 14)
            + _arc(0.62, 0.30, 0.42, 0.55, 195, 245, 8))
    g[7] = (_line(0.22, 0.12, 0.78, 0.12) + _line(0.78, 0.12, 0.42, 0.90)
            + _line(0.34, 0.52, 0.68, 0.52))
    g[8] = (_arc(0.5, 0.30, 0.22, 0.20, 0, 360, 14)
            + _arc(0.5, 0.70, 0.27, 0.22, 0, 360, 14))
    g[9] = (_arc(0.48, 0.35, 0.24, 0.24, 0, 360, 14)
            + _arc(0.40, 0.60, 0.42, 0.52, 290, 345, 8))
    return g


GLYPHS = _build_glyphs()


@dataclass(frozen=True)
class SyntheticDigitConfig:
    """Generation knobs (defaults give an MNIST-like difficulty)."""

    image_size: int = 28
    #: Glyph bounding box inside the canvas (MNIST digits live in the
    #: central ~20x20 of the 28x28 frame).
    glyph_margin: int = 4
    stroke_width: float = 1.3       # mean half-width in pixels
    stroke_width_jitter: float = 0.35
    edge_softness: float = 0.9      # anti-aliasing ramp in pixels
    max_rotation_deg: float = 17.0
    scale_jitter: float = 0.16
    max_shear: float = 0.24
    max_translate_px: float = 2.5
    noise_sigma: float = 0.09
    blur_sigma: float = 0.5

    def __post_init__(self) -> None:
        if self.image_size < 8:
            raise DatasetError(f"image_size too small: {self.image_size}")
        if not 0 <= 2 * self.glyph_margin < self.image_size:
            raise DatasetError("glyph_margin leaves no room for the glyph")


def glyph_distance_field(
    digit: int, config: SyntheticDigitConfig = SyntheticDigitConfig()
) -> np.ndarray:
    """Per-pixel distance (in pixels) from the digit's stroke skeleton.

    Computed once per class and reused for every sample of that class.
    """
    if digit not in GLYPHS:
        raise DatasetError(f"no glyph for digit {digit!r}")
    size = config.image_size
    span = size - 2 * config.glyph_margin
    # Pixel centres in glyph coordinates.
    px = (np.arange(size) + 0.5 - config.glyph_margin) / span
    xx, yy = np.meshgrid(px, px, indexing="xy")
    points = np.stack([xx.ravel(), yy.ravel()], axis=1)  # (P, 2)

    segs = np.asarray(GLYPHS[digit], dtype=float)  # (S, 2, 2)
    a = segs[:, 0, :]  # (S, 2)
    b = segs[:, 1, :]
    ab = b - a
    ab_len2 = np.maximum(np.sum(ab**2, axis=1), 1e-12)  # (S,)

    # Project every pixel on every segment, clamp to the segment body.
    ap = points[:, np.newaxis, :] - a[np.newaxis, :, :]         # (P, S, 2)
    t = np.clip(np.sum(ap * ab, axis=2) / ab_len2, 0.0, 1.0)    # (P, S)
    closest = a[np.newaxis, :, :] + t[..., np.newaxis] * ab     # (P, S, 2)
    dist = np.linalg.norm(points[:, np.newaxis, :] - closest, axis=2)
    field = dist.min(axis=1).reshape(size, size)
    return field * span  # back to pixel units


_FIELD_CACHE: Dict[Tuple[int, SyntheticDigitConfig], np.ndarray] = {}


def _cached_field(digit: int, config: SyntheticDigitConfig) -> np.ndarray:
    key = (digit, config)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = glyph_distance_field(digit, config)
    return _FIELD_CACHE[key]


def _random_affine(rng: np.random.Generator, config: SyntheticDigitConfig):
    """Sample an affine map (matrix, offset) about the canvas centre."""
    theta = np.radians(rng.uniform(-config.max_rotation_deg,
                                   config.max_rotation_deg))
    sx = 1.0 + rng.uniform(-config.scale_jitter, config.scale_jitter)
    sy = 1.0 + rng.uniform(-config.scale_jitter, config.scale_jitter)
    shear = rng.uniform(-config.max_shear, config.max_shear)
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    sh = np.array([[1.0, shear], [0.0, 1.0]])
    scale = np.diag([1.0 / sx, 1.0 / sy])
    matrix = rot @ sh @ scale
    centre = (config.image_size - 1) / 2.0
    shift = rng.uniform(-config.max_translate_px, config.max_translate_px, size=2)
    offset = np.array([centre, centre]) - matrix @ (np.array([centre, centre]) + shift)
    return matrix, offset


def render_digit(
    digit: int,
    rng: np.random.Generator,
    config: SyntheticDigitConfig = SyntheticDigitConfig(),
) -> np.ndarray:
    """One augmented sample of ``digit`` as a (size, size) float image."""
    # Imported on first render, not with the package: a process that
    # never synthesizes images (a fleet worker) never loads it.
    from scipy import ndimage

    field = _cached_field(digit, config)
    width = config.stroke_width + rng.uniform(
        -config.stroke_width_jitter, config.stroke_width_jitter
    )
    ink = np.clip((width + config.edge_softness - field) / config.edge_softness,
                  0.0, 1.0)
    matrix, offset = _random_affine(rng, config)
    warped = ndimage.affine_transform(
        ink, matrix, offset=offset, order=1, mode="constant", cval=0.0
    )
    if config.blur_sigma > 0:
        warped = ndimage.gaussian_filter(warped, config.blur_sigma)
    if config.noise_sigma > 0:
        warped = warped + rng.normal(0.0, config.noise_sigma, warped.shape)
    return np.clip(warped, 0.0, 1.0)


def generate_digit_images(
    n_samples: int,
    seed: SeedLike = None,
    config: SyntheticDigitConfig = SyntheticDigitConfig(),
) -> Tuple[np.ndarray, np.ndarray]:
    """Generate ``(images, labels)`` with a balanced class mix.

    ``images`` has shape ``(n_samples, size*size)`` (flattened, float in
    [0, 1]); ``labels`` are int digits.  Classes are interleaved and then
    shuffled so any prefix of the dataset is still balanced.
    """
    if n_samples <= 0:
        raise DatasetError(f"n_samples must be positive, got {n_samples}")
    rng = ensure_rng(seed)
    labels = np.arange(n_samples) % 10
    rng.shuffle(labels)
    size = config.image_size
    images = np.empty((n_samples, size * size), dtype=np.float64)
    for i, digit in enumerate(labels):
        images[i] = render_digit(int(digit), rng, config).ravel()
    return images, labels.astype(int)
