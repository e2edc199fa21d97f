"""cmtower: exact p-adic computations around formal-group division
towers, their discriminants and conductors, the coordinates and
uniformizers of CM fields split at p, and the exterior-product
congruence engine on units."""

__version__ = "1.0.0"
