"""medialq: medial quasigroups of prime-power order, enumerated and verified.

A medial quasigroup is a quasigroup satisfying (x*y)*(u*v) = (x*u)*(y*v);
equivalently (Toyoda-Bruck) one of the form x*y = phi(x) + psi(y) + c over
an abelian group with commuting automorphisms phi, psi.  This package
enumerates such quasigroups over Z_{p^k} and Z_p x Z_p up to isomorphism,
materializes their Cayley tables, and cross-validates the enumeration with
a brute-force isomorphism oracle that knows nothing about affine forms.
"""

import os

# medialq makes no BLAS call, and starting OpenBLAS's thread pool costs every
# process CPU at numpy's import.  A value the user set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .fp import MAX_PRIME, Prime, fp_inv, is_irreducible_quadratic
from .groups import CosetList, Cyclic, ElemAbelianRank2, GroupSpec, quotient_cosets
from .gl2 import (
    Mat2,
    Unit,
    centralizer,
    commutes,
    conj_class_reps,
    conjugacy_partition,
    gl2_elements,
    units,
)
from .quasigroup import (
    AffineForm,
    CayleyTable,
    affine_tables,
    build_table,
    count_idempotents,
    is_latin,
    is_medial,
    tables_from_text,
    to_json,
    to_text,
)
from .enumeration import (
    CASE_TAG_CYCLIC,
    CASE_TAGS_RANK2,
    EnumerationReport,
    Polynomial,
    RepresentativeTriple,
    block_triples,
    closed_form_cyclic,
    closed_form_order_p2,
    closed_form_zp2,
    count_composite,
    enumerate_blocks,
    enumerate_forms,
    group_label,
    interpolate_count_polynomial,
    orbit_reps_c,
    reps_x,
    reps_y,
    stabilizer,
)
from .oracle import (
    Fingerprint,
    IsoClass,
    all_affine_forms,
    all_affine_tables,
    are_isomorphic,
    assign_to_classes,
    classify,
    fingerprint,
)

__version__ = "0.1.0"
