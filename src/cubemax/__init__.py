"""Discrete laboratory for maximal-operator variation bounds over cube families."""

from .grid import (
    BoundaryMeasure,
    GridFunction,
    PixelSet,
    grid_from_array,
    integrate_breakpoints,
    lambda_breakpoints,
    perimeter,
    superlevel,
    variation,
)
from .cubes import (
    CubeFamily,
    GridCube,
    dyadic_completion,
    dyadic_descendants,
    family_averages,
    is_dyadically_complete,
    maximal_cube_reduction,
)
from .sat import SummedAreaTable

__all__ = [
    "BoundaryMeasure",
    "CubeFamily",
    "GridCube",
    "GridFunction",
    "PixelSet",
    "SummedAreaTable",
    "dyadic_completion",
    "dyadic_descendants",
    "family_averages",
    "grid_from_array",
    "integrate_breakpoints",
    "is_dyadically_complete",
    "lambda_breakpoints",
    "maximal_cube_reduction",
    "perimeter",
    "superlevel",
    "variation",
]
