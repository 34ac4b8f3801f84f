"""Shared per-pixel label conventions.

Class labels occupy 0..K-1. The outlier "class" is encoded as K so that
open-set label maps fit in a single integer raster, and 255 marks pixels
excluded from every loss and metric. The label map alone says which pixels
training and evaluation use. `PixelRole` names the values of the dataset
directory's role masks, which the scene reader checks against the labels.
"""

from enum import IntEnum

IGNORE_LABEL = 255


class PixelRole(IntEnum):
    INLIER = 0
    OUTLIER = 1
    IGNORE = 2
