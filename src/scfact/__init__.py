"""Order reduction of scalar difference equations via form symmetries.

The package constructs and verifies semiconjugate factorizations -- the
split of an order-(k+1) recurrence into a reduced factor equation and a
cofactor that rebuilds the original variable -- for the constructive
classes (homogeneous-of-degree-1, separable additive/multiplicative, and
fully triangular linear cascades), simulates the resulting systems, and
characterizes their dynamics.

Each module's ``__all__`` is the one declaration of its public names; the
package re-exports all of them.
"""

from . import equations, expressions, factorization, dynamics, polynomials, symmetry
from .equations import *
from .expressions import *
from .factorization import *
from .dynamics import *
from .polynomials import *
from .symmetry import *

__all__ = [
    name
    for module in (equations, expressions, factorization, dynamics, polynomials, symmetry)
    for name in module.__all__
]
__version__ = "0.1.0"
