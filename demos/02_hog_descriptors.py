#!/usr/bin/env python3

# Histogram-of-oriented-gradients features, step by step.
#
# Pixels -> centered gradients -> per-cell orientation histograms ->
# block-normalized descriptor vector.  The default configuration on a
# 160x120 frame gives 19 x 14 blocks x 4 cells x 9 bins = 9,576 values.

import numpy as np

from photonrc import hog
from photonrc.hog import (
    HogConfig,
    cell_histograms,
    descriptor_layout,
    feature_count,
    hog_descriptor,
)

# A vertical step edge: all gradient energy points along angle 0.  The
# centred differences and their (magnitude, angle) are the module's own
# private steps, which the histograms below take internally.
edge = np.zeros((8, 8))
edge[:, 4:] = 255.0
magnitude, angle = hog._orientation(*hog._differences(edge))
print("step edge gradient magnitudes (one row):")
print(" ", magnitude[4])
print("  angles on the edge columns:", np.unique(angle[:, 3:5]))

# A diagonal ramp: the interior gradient points at exactly 30 degrees,
# which is the center of orientation bin 1 (centers sit at 10, 30, ...).
rad = np.radians(30.0)
yy, xx = np.mgrid[0:24, 0:24].astype(np.float64)
ramp = np.cos(rad) * xx + np.sin(rad) * yy
hist = cell_histograms(ramp, HogConfig(cell_size=8))
center = hist[1, 1]  # interior cell, untouched by border effects
print("\n30-degree ramp, center cell histogram:")
print(" ", np.round(center, 3))
print(f"  bin 1 holds {100 * center[1] / center.sum():.1f}% of the mass")

# An in-between angle splits its vote linearly across the two nearest
# bin centers, and 175 degrees wraps around to bin 0.
for angle_deg in (25.0, 175.0):
    rad = np.radians(angle_deg)
    ramp = np.cos(rad) * xx + np.sin(rad) * yy
    center = cell_histograms(ramp, HogConfig(cell_size=8))[1, 1]
    shares = np.round(center / center.sum(), 4)
    print(f"  {angle_deg:5.1f} degrees -> bin shares {shares}")

# The full descriptor at the benchmark resolution.
rng = np.random.default_rng(0)
frame = rng.integers(0, 256, size=(120, 160), dtype=np.uint8)
values, layout = hog_descriptor(frame)
print(f"\ndefault layout on (120, 160): {layout}, "
      f"{feature_count((120, 160))} features")
print(f"  descriptor range [{values.min():.4f}, {values.max():.4f}] "
      "(block L2 normalization keeps every value in [0, 1])")

# Block normalization makes the descriptor contrast-invariant: scaling all
# pixels by a constant leaves it alone (float input avoids requantization).
base, _ = hog_descriptor(frame.astype(np.float64))
scaled, _ = hog_descriptor(frame.astype(np.float64) * 3.7)
print(f"  pure contrast scaling shifts the descriptor by "
      f"{np.max(np.abs(base - scaled)):.2e}")

# Alternative geometries, all described by the same layout tuple.
for config in (HogConfig(), HogConfig(cell_size=4, num_bins=6),
               HogConfig(cell_size=8, block_size=3, block_stride=2)):
    layout = descriptor_layout((120, 160), config)
    print(f"  cell {config.cell_size}, block {config.block_size}, "
          f"stride {config.block_stride}, bins {config.num_bins} -> "
          f"layout {layout} = {int(np.prod(layout))} values")
