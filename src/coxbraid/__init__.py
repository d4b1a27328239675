"""Exact computation in spherical Artin-Tits groups.

Submodules cover finite Coxeter groups (coxeter), the classical Garside
structure and word problem (garside), dual braid monoids and noncrossing
partitions (dual), strand removal geometry and counts (mikado), SVG
rendering (render), exact Laurent and Hecke algebra arithmetic with
canonical bases (laurent, hecke), the Temperley-Lieb quotient (tl),
verification sweeps (verify) and the command line front end (cli).
"""

__version__ = "0.1.0"

from .coxeter import (
    CoxeterElement,
    CoxeterGroup,
    CoxeterType,
    IntegrityError,
    ResourceError,
    coxeter_group,
    standard_coxeter_elements,
)
from .garside import (
    BraidWord,
    GarsideNormalForm,
    braid_equal,
    delta_normal_form,
    fraction_form,
    is_rational_permutation,
    is_square_free,
    positive_lift,
    signed_lift,
)
from .dual import (
    NoncrossingPartition,
    divisors_of,
    dual_atoms,
    dual_monoid,
    embed_simple,
    hurwitz_orbit,
    ncp_decode,
    ncp_encode,
)
from .laurent import LaurentPolynomial
from .hecke import HeckeElement, braid_image_a, hecke_mul, j_h, kl_table
from .mikado import (
    WiringDiagram,
    count_mikado_A,
    count_mikado_B,
    is_mikado_A,
    is_mikado_B,
)
from .render import render_svg
from .tl import TLDiagram, TLElement, b_w, omega, theta, theta_prime, zinno_matrix
from .verify import CHECKS, Report, run_check

__all__ = [
    "BraidWord",
    "CHECKS",
    "CoxeterElement",
    "CoxeterGroup",
    "CoxeterType",
    "GarsideNormalForm",
    "HeckeElement",
    "IntegrityError",
    "LaurentPolynomial",
    "NoncrossingPartition",
    "Report",
    "ResourceError",
    "TLDiagram",
    "TLElement",
    "WiringDiagram",
    "__version__",
    "b_w",
    "braid_equal",
    "braid_image_a",
    "count_mikado_A",
    "count_mikado_B",
    "coxeter_group",
    "delta_normal_form",
    "divisors_of",
    "dual_atoms",
    "dual_monoid",
    "embed_simple",
    "fraction_form",
    "hecke_mul",
    "hurwitz_orbit",
    "is_mikado_A",
    "is_mikado_B",
    "is_rational_permutation",
    "is_square_free",
    "j_h",
    "kl_table",
    "ncp_decode",
    "ncp_encode",
    "omega",
    "positive_lift",
    "render_svg",
    "run_check",
    "signed_lift",
    "standard_coxeter_elements",
    "theta",
    "theta_prime",
    "zinno_matrix",
]
