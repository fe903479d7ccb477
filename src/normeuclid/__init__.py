"""normeuclid: explicit bounds for the sphere-packing criterion for
norm-Euclidean number fields, plus Dedekind zeta machinery for cyclotomic
fields.

Subpackages by theme:

* specfun    foundation numerics (digamma, one-point Hurwitz zeta, constants)
* rogers     two-sided explicit bounds for the Rogers packing constant
* lenstra    criterion thresholds, GRH discriminant bounds, the crossing
             degree where they collide
* cyclozeta  Hurwitz zeta array kernels, Dirichlet characters, L-functions,
             cyclotomic zeta values and scans
* zimmert    digamma series bounds and the minimal-ideal-norm inequalities
* acceptance the ten acceptance criteria that ``normeuclid reproduce`` runs
* cli        command-line front end (``normeuclid ...``); its import loads
             specfun, rogers and lenstra, and neither numpy, dataclasses,
             json nor the acceptance suite

Nothing is imported up front: ``normeuclid.<module>`` and
``normeuclid.<name>``, for any name in a module's ``__all__``, load on
first use, so ``from normeuclid import lenstra`` loads only lenstra and
what it imports.  A private name never loads a module.
"""

__version__ = "0.1.0"

# in dependency order, so a name resolves after loading only what it needs
_MODULES = ("specfun", "rogers", "lenstra", "cyclozeta", "zimmert", "acceptance", "cli")


def __getattr__(name: str):
    # submodules first: ``from normeuclid import x`` asks for x here before
    # it would import the submodule itself; private names, dunder protocol
    # probes among them, never load anything
    if name in _MODULES:
        # the import statement's own route, which ``-X importtime`` reports
        __import__(f"{__name__}.{name}")
        return globals()[name]
    if not name.startswith("_"):
        for module in _MODULES:
            mod = __getattr__(module)
            if name in mod.__all__:
                return getattr(mod, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
