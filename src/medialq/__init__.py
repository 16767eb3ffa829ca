"""medialq: medial quasigroups of prime-power order, enumerated and verified.

A medial quasigroup is a quasigroup satisfying (x*y)*(u*v) = (x*u)*(y*v);
equivalently (Toyoda-Bruck) one of the form x*y = phi(x) + psi(y) + c over
an abelian group with commuting automorphisms phi, psi.  This package
enumerates such quasigroups over Z_{p^k} and Z_p x Z_p up to isomorphism,
materializes their Cayley tables, and cross-validates the enumeration with
a brute-force isomorphism oracle that knows nothing about affine forms.
"""

import os
from importlib import import_module as _import_module

# medialq makes no BLAS call, and starting OpenBLAS's thread pool costs every
# process CPU at numpy's import.  A value the user set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# Each public name and the module that defines it.  A module is imported the
# first time one of its names is read (PEP 562), so a command loads only the
# modules it uses.
_EXPORTS = {
    "fp": ("MAX_PRIME", "Prime", "fp_inv", "is_irreducible_quadratic"),
    "groups": ("CosetList", "Cyclic", "ElemAbelianRank2", "GroupSpec", "quotient_cosets"),
    "gl2": ("Mat2", "Unit", "centralizer", "conj_class_reps", "conjugacy_partition", "units"),
    "quasigroup": (
        "AffineForm", "CayleyTable", "build_table", "count_idempotents", "is_latin", "is_medial", "to_json",
        "to_text",
    ),
    "enumeration": (
        "CASE_TAG_CYCLIC", "CASE_TAGS_RANK2", "EnumerationReport", "Polynomial", "RepresentativeTriple",
        "closed_form_cyclic", "closed_form_order_p2", "closed_form_zp2", "count_composite", "enumerate_blocks",
        "enumerate_forms", "group_label", "interpolate_count_polynomial", "orbit_reps_c", "reps_x", "reps_y",
        "stabilizer",
    ),
    "oracle": (
        "Fingerprint", "IsoClass", "all_affine_forms", "all_affine_tables", "assign_to_classes", "classify",
        "fingerprint",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_MODULE_OF, *_EXPORTS]


def __getattr__(name):
    """A public name read from its module, or a module of the package, imported on first use."""
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"
