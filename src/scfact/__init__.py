"""Order reduction of scalar difference equations via form symmetries.

The package constructs and verifies semiconjugate factorizations -- the
split of an order-(k+1) recurrence into a reduced factor equation and a
cofactor that rebuilds the original variable -- for the constructive
classes (homogeneous-of-degree-1, separable additive/multiplicative, and
fully triangular linear cascades), simulates the resulting systems, and
characterizes their dynamics.

Each module's ``__all__`` is the one declaration of its public names; the
package re-exports all of them.  Modules load on first use: importing the
package puts each one in ``sys.modules`` and on the package without running
it, and a module runs when one of its attributes is first read, so a
command that only parses runs ``equations`` and ``expressions`` alone.  The
first public name read from the package, or its ``__all__``, loads all six.
Before Python 3.13 the lazy loader may run a module without a lock (3.11.7
takes none), so a threaded caller should read ``scfact.__all__`` from one
thread before starting the others.
"""

import importlib.util
import sys

_MODULES = ("equations", "expressions", "factorization", "dynamics", "polynomials", "symmetry")

for _name in _MODULES:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    globals()[_name] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_name])
del _name, _spec

__version__ = "0.1.0"


def __getattr__(name: str):
    """Bind every module's public names, and ``__all__``, on first use.
    ``from scfact import cli`` asks for ``cli`` before importing it, which
    must not load the library."""
    if name != "cli":
        modules = [globals()[module] for module in _MODULES]
        names = {key: getattr(module, key) for module in modules for key in module.__all__}
        globals().update(names, __all__=list(names))
        if name in names or name == "__all__":
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
