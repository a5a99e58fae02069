"""Loop-group central extension data, lifting-gerbe geometry and the
caloron transfer, discretised on a circle grid.

Modules
-------
liegroup   compact groups SU(2)/SU(3), exp, adjoint, invariant pairing
loops      theta grids, loops and paths with exact theta derivatives, quadrature
forms      differential forms over the supported point types, exterior
           derivative, simplicial alternating sums
centext    the two-form and product one-form of the central extension,
           path cocycle, reduced splittings
gerbe      trivial-bundle and path-fibration scenarios, gerbe connection
           data, curving, string three-form
caloron    transfer between loop-group bundle data and bundle data on the
           product with a circle
sampling   seeded random fixtures, with a recording and replaying generator
checks     the named residual checks, their registry and convergence studies
report     versioned JSON report and its CSV projection
cli        reproducible residual-report runner
"""

__version__ = "0.1.0"
