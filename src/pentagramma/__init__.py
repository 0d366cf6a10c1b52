"""Napier pentagons on the sphere, their plane shadow, and elliptic 5-division.

The package chains four classical constructions and checks every identity
along the way: the cyclic algebra of self-polar spherical pentagons, the
spectrum of their vertex cone, Poncelet chord polygons between two circles,
and the Rogers dilogarithm five-term identity that the pentagon realises
geometrically.  Each name is imported from the module that defines it.
"""

__version__ = "0.1.0"
