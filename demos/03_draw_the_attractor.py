"""
Sampling an attractor and reading off its box dimension
=======================================================

Two ways to touch the attractor: the chaos game (many short random
orbits from the origin) and cylinder points (one point per word of a
fixed length). The box counting slope of a large orbit sample estimates
the dimension; for the middle-thirds set the answer is known,
log 2 / log 3 = 0.6309...
"""

import math
from pathlib import Path

from affdim import (
    AffineMap2,
    ConvexBody,
    IfsFamily,
    Mat2,
    box_dim_estimate,
    chaos_game,
    cylinder_points,
    hausdorff_distance,
    parse_config,
    render_levels,
)

cantor = IfsFamily(
    regular=(
        AffineMap2(Mat2.diagonal(1 / 3, 1 / 3), (0.0, 0.0)),
        AffineMap2(Mat2.diagonal(1 / 3, 1 / 3), (2 / 3, 0.0)),
    ),
    singular=(),
)

cloud = chaos_game(cantor, 0.0, 200_000, seed=21)
series = box_dim_estimate(cloud)
print("box counts per dyadic scale:", series.counts)
print("slope %.4f   (log 2 / log 3 = %.4f)   r^2 %.4f"
      % (series.slope, math.log(2) / math.log(3), series.r_squared))

# Cylinder points land within (contraction)^depth of the attractor, so
# the two samples converge to each other as the depth grows.
for depth in (4, 8, 12):
    cyl = cylinder_points(cantor, 0.0, depth)
    print("depth %2d: %5d cylinder points, Hausdorff to orbit %.2e"
          % (depth, len(cyl.points), hausdorff_distance(cyl, cloud)))

# For the mixed demo family, draw the first three generations of image
# bodies. Swept segments show where the rank-one images can live for
# any angle.
cfg = parse_config(Path(__file__).with_name("demo_family.json").read_text())
square = ConvexBody.polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
svg = render_levels(cfg.family, 0.0, square, levels=3)
out = Path(__file__).with_name("out")
out.mkdir(exist_ok=True)
(out / "levels.svg").write_text(svg)
print()
print("wrote", out / "levels.svg")
