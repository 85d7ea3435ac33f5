"""Test helper: the oracles build an expected product block by block."""

import numpy as np

from polycode.matrixcore import FMatrix


def assemble_blocks(grid: list) -> FMatrix:
    """Stitch a 2-D list of blocks (block row j, block col k) into one matrix."""
    return FMatrix(np.block([[b.data for b in row] for row in grid]), grid[0][0].ctx, _canonical=True)
