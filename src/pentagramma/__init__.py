"""Napier pentagons on the sphere, their plane shadow, and elliptic 5-division.

The package chains four classical constructions and checks every identity
along the way: the cyclic algebra of self-polar spherical pentagons, the
spectrum of their vertex cone, Poncelet chord polygons between two circles,
and the Rogers dilogarithm five-term identity that the pentagon realises
geometrically.
"""

from .cone_spectrum import (ConeQuadric, SpectralTriple, cone_coefficients,
                            modulus_from_spectrum, solve_characteristic)
from .dilogarithm import li2, pentagon_five_term, rogers_L, spence_residual
from .elliptic_kernel import (JacobiTriple, am, complete_K, half_angle_tan,
                              incomplete_F, jacobi_sum, jacobi_triple)
from .errors import (ChordDegenerateError, DegenerateError, DomainError,
                     GeometryError, InvariantError, NearPoleError,
                     NoSolutionError, NoTangentError, OffEllipseError,
                     PentagrammaError, SingularError, SubcriticalError)
from .gauss_projection import (PlanarPentagon, confocal_residual, eccentric_anomaly,
                               gauss_theorem_residuals, pentagon_from_frame,
                               recover_from_pm1, recover_from_pm2)
from .napier_uniformization import (PentagonFrame, alpha_sequence, beta_sequence,
                                    frame_vectors, k_of_omega, omega_of_k)
from .pentagram_algebra import (GOLDEN, AlphaCycle, NapierParts, SpherePentagon,
                                build_sphere_vertices, complete_from_two,
                                gauss_reflect, napier_rotate, pentagon_parts,
                                pentagram_invariants, sides_from_alphas, verify_napier)
from .poncelet import (PonceletTrajectory, TwoCircleConfig, chord_step,
                       closure_residual, modulus_of_config, porism_residual,
                       search_closing_config, trajectory)

__version__ = "0.1.0"
