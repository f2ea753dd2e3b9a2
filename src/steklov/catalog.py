"""Built-in boundary data and the matching exact harmonic solutions.

Dirichlet test data (traces of harmonic functions):

    f1 = x^4 - 6 x^2 y^2 + y^4        (Re z^4)
    f2 = (2 - x) / ((2 - x)^2 + y^2)  (Re 1/(2 - z))
    f3 = ln sqrt((x-3)^2 + (y-3)^2)   (Re ln(z - 3 - 3i))

Flux-type data with known solutions on R_h:

    bd1: +1 on G1, G2 and -1 on G3, G4; Neumann data of u = x + y
    bd2: +2 on G1, G3 and -2h on G2, G4; Neumann data of u = x^2 - y^2
    bd3: Robin data (b = 1) of u = e^x sin y, discontinuous at corners

bd1 and bd2 are deliberately discontinuous at corners even though their
solutions are smooth.

Every formula here is written with numpy: it takes floats or arrays that
broadcast together, and returns a float or an array of the broadcast shape.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .boundary import BoundaryFunction, integrate_boundary
from .geometry import Rectangle, Side
from .solvers import NEUMANN, ProblemKind

BUILTIN_NAMES = ("f1", "f2", "f3", "bd1", "bd2", "bd3")


@dataclass(frozen=True)
class ExactSolution:
    """A harmonic function and the boundary value problem whose data it solves."""

    name: str
    value: Callable[[float, float], float]
    gradient: Callable[[float, float], tuple[float, float]]
    problem: ProblemKind


def f1(x, y):
    return x**4 - 6.0 * x * x * y * y + y**4


def f1_gradient(x, y):
    return (4.0 * x**3 - 12.0 * x * y * y, 4.0 * y**3 - 12.0 * x * x * y)


def f2(x, y):
    w = 2.0 - x
    return w / (w * w + y * y)


def f2_gradient(x, y):
    # f2 = Re 1/(2-z); d/dz 1/(2-z) = 1/(2-z)^2, grad = (Re F', -Im F')
    w = 2.0 - x
    d = w * w + y * y
    return ((w * w - y * y) / (d * d), -2.0 * w * y / (d * d))


def f3(x, y):
    return 0.5 * np.log((x - 3.0) ** 2 + (y - 3.0) ** 2)


def f3_gradient(x, y):
    r2 = (x - 3.0) ** 2 + (y - 3.0) ** 2
    return ((x - 3.0) / r2, (y - 3.0) / r2)


def _at_points(x, y, *components):
    """Each component at the broadcast shape of x and y; a float at one point."""
    shape = np.broadcast(x, y).shape
    return tuple(np.broadcast_to(c, shape).copy()[()] for c in components)


def _u_linear(x, y):
    return x + y


def _u_linear_gradient(x, y):
    return _at_points(x, y, 1.0, 1.0)


def _u_saddle(x, y):
    return x * x - y * y


def _u_saddle_gradient(x, y):
    return _at_points(x, y, 2.0 * x, -2.0 * y)


def _u_exp_sin(x, y):
    return np.exp(x) * np.sin(y)


def _u_exp_sin_gradient(x, y):
    ex = np.exp(x)
    return (ex * np.sin(y), ex * np.cos(y))


EXACT_SOLUTIONS = {
    "f1": ExactSolution("f1", f1, f1_gradient, ProblemKind.dirichlet()),
    "f2": ExactSolution("f2", f2, f2_gradient, ProblemKind.dirichlet()),
    "f3": ExactSolution("f3", f3, f3_gradient, ProblemKind.dirichlet()),
    "bd1": ExactSolution("x+y", _u_linear, _u_linear_gradient, ProblemKind.neumann()),
    "bd2": ExactSolution("x^2-y^2", _u_saddle, _u_saddle_gradient, ProblemKind.neumann()),
    "bd3": ExactSolution("e^x sin y", _u_exp_sin, _u_exp_sin_gradient, ProblemKind.robin(1.0)),
}


@functools.lru_cache(maxsize=64)  # one mean per (value, rect, tolerances): fresh TableWorkspaces ask again
def zero_mean_solution(value, rect: Rectangle, abstol: float = 1e-10, reltol: float = 1e-6):
    """value(x, y) minus its perimeter-weighted boundary mean on rect: the
    solution a Neumann solve, which keeps a zero boundary mean, approximates.

    The boundary is symmetric under p -> -p, so the mean of u is that of
    (u(p) + u(-p)) / 2, which is exactly 0 for an odd u such as x + y.
    """
    even = BoundaryFunction.from_xy(lambda x, y: value(x, y) + value(-x, -y), rect)
    mean = integrate_boundary(even, abstol, reltol)[0] / (2.0 * rect.perimeter)
    return lambda x, y: value(x, y) - mean


def reference_solution(exact: ExactSolution, kind: str, rect: Rectangle,
                       abstol: float = 1e-10, reltol: float = 1e-6):
    """The function a solve of exact's data under the problem kind named kind
    is measured against: exact.value, or for Neumann its zero_mean_solution,
    since the solve keeps the solution with zero boundary mean."""
    if kind != NEUMANN:
        return exact.value
    return zero_mean_solution(exact.value, rect, abstol, reltol)


def builtin_boundary(name: str, rect: Rectangle, b: Optional[float] = None) -> BoundaryFunction:
    """Construct one of the named data sets on a given rectangle.

    bd3 is Robin data tied to b = 1; passing any other b is rejected rather
    than silently producing data for the wrong problem.
    """
    if name in ("f1", "f2", "f3"):
        fn = {"f1": f1, "f2": f2, "f3": f3}[name]
        return BoundaryFunction.from_xy(fn, rect, name)
    h = rect.h
    if name == "bd1":
        return BoundaryFunction.from_sides(
            rect, {Side.G1: 1.0, Side.G2: 1.0, Side.G3: -1.0, Side.G4: -1.0}, "bd1"
        )
    if name == "bd2":
        return BoundaryFunction.from_sides(
            rect,
            {Side.G1: 2.0, Side.G2: -2.0 * h, Side.G3: 2.0, Side.G4: -2.0 * h},
            "bd2",
        )
    if name == "bd3":
        if b is not None and b != 1.0:
            raise ValueError(f"bd3 is defined for the Robin constant b = 1, got b = {b}")
        edge = math.cos(h) + math.sin(h)
        return BoundaryFunction.from_sides(
            rect,
            {
                Side.G1: lambda x, y: 2.0 * math.e * np.sin(y),
                Side.G2: lambda x, y, c=edge: np.exp(x) * c,
                Side.G3: 0.0,
                Side.G4: lambda x, y, c=edge: -np.exp(x) * c,
            },
            "bd3",
        )
    raise ValueError(f"unknown builtin boundary data {name!r}; choose from {BUILTIN_NAMES}")


def exact_solution_for(name: str) -> Optional[ExactSolution]:
    return EXACT_SOLUTIONS.get(name)


def boundary_data_from_spec(obj: dict, rect: Rectangle, b: Optional[float] = None) -> BoundaryFunction:
    """Build boundary data from its JSON form.

    Accepted shapes: {"builtin": name}, {"expr": text}, or
    {"sides": {"G1": v, ...}} where each side value is a number (constant),
    a string (expression in x and y), or a list (polynomial coefficients in
    the side parameter, low order first). Any other shape or type raises
    ValueError.
    """
    from . import expressions

    if not isinstance(obj, dict):
        raise ValueError(f"boundary spec must be a JSON object, got {obj!r}")
    if "builtin" in obj:
        return builtin_boundary(obj["builtin"], rect, b)
    if "expr" in obj:
        if not isinstance(obj["expr"], str):
            raise ValueError(f"boundary spec expr must be a string, got {obj['expr']!r}")
        return BoundaryFunction.from_expression(obj["expr"], rect)
    if "sides" in obj:
        sides = obj["sides"]
        if not isinstance(sides, dict):
            raise ValueError(f"boundary spec sides must map G1..G4 to values, got {sides!r}")
        maps = {}
        polys = {}
        for side in Side:
            try:
                entry = sides[side.name]
            except KeyError:
                raise ValueError(f"boundary spec is missing side {side.name}") from None
            if isinstance(entry, str):
                tree = expressions.parse(entry)
                maps[side] = lambda x, y, t=tree: expressions.evaluate(t, x, y)
            elif isinstance(entry, (list, tuple)) and all(isinstance(c, (int, float, str)) for c in entry):
                polys[side] = entry
            elif isinstance(entry, (int, float)):
                maps[side] = float(entry)
            else:
                raise ValueError(f"boundary spec side {side.name}: expected a number, a string or "
                                 f"a list of coefficients, got {entry!r}")
        if polys:
            poly_fn = BoundaryFunction.from_side_polynomials(
                rect, {s: polys.get(s, [0.0]) for s in Side}
            )
            for side in polys:
                maps[side] = poly_fn.side_maps[side]
        return BoundaryFunction.from_sides(rect, maps, obj.get("name", "sides"))
    raise ValueError("boundary spec needs one of the keys: builtin, expr, sides")
