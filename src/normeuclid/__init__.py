"""normeuclid: explicit bounds for the sphere-packing criterion for
norm-Euclidean number fields, plus Dedekind zeta machinery for cyclotomic
fields.

Modules by theme:

* specfun    foundation numerics (digamma, one-point Hurwitz zeta, constants)
* rogers     two-sided explicit bounds for the Rogers packing constant
* lenstra    criterion thresholds, GRH discriminant bounds, the crossing
* cyclozeta  Hurwitz kernels, characters, L-values, cyclotomic zeta, scans
* zimmert    digamma series bounds and the minimal-ideal-norm inequalities
* acceptance the ten acceptance criteria that ``normeuclid reproduce`` runs
* cli        command line; it loads specfun, rogers and lenstra, no numpy

``import normeuclid`` loads none of them.  Import the module you need
(``from normeuclid import lenstra`` loads lenstra and what it imports) and
take its functions and classes from it; the package holds none of them.
"""

__version__ = "0.1.0"
