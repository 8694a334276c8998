"""Covariant Hamiltonian field theory on multimomentum phase space.

The package builds the phase space of graded momenta over a product of a
base (space-time) and a fiber (field) manifold, its canonical n-form and
closed (n+1)-form, performs the Legendre correspondence, and provides the
generalized Poisson bracket algebra on forms (including the Grassmann
extension to lower degree).  Besides the full and De Donder-Weyl charts it
has the electromagnetic chart with the antisymmetric momentum constraint.
A quantity with no closed form, such as the Hamiltonian that the Legendre
correspondence gives only implicitly, enters expressions as one leaf type,
:class:`Opaque`, which carries its value and the leaves of its partials.
``polyfield legendre`` (``polyfield.cli``) runs one Legendre solve from the
command line.
"""

from .expr import Expression, Opaque, parse

__all__ = ["Expression", "Opaque", "parse"]

__version__ = "0.1.0"
