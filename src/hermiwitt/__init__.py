"""Exact-arithmetic toolkit for epsilon-hermitian forms over the p-adic
quaternion division algebra with orthogonal anti-involution: truncated
p-adic arithmetic, Witt-group calculus, Witt decomposition, Morita transfer
of hermitian categories, Witt towers, and endo-parameter counting."""

from .padic import (
    FElement,
    FieldConfig,
    QuadExtElement,
    QuadExtField,
    find_nonsquare_unit_L,
    norm_trace_L,
    solve_norm_equation,
    tau_conj,
)
from .quaternion import QuaternionElement, congruent_mod_nuD, quat_mul
from .hermitian import (
    DiagonalForm,
    HermitianForm,
    cayley_isometry,
    congruence_basis,
    diagonalize,
    reduced_norm,
    trace_lift_hL,
    twist,
    validate,
)
from .wittclass import (
    WittClassD,
    anisotropic_dim,
    class_of_form,
    classify_line,
    equivalence_oracle,
    is_isotropic,
    witt_add,
    witt_decompose,
)
from .morita import (
    EDForm,
    EWittClass,
    IdempotentE,
    SplitData,
    WittTowerValue,
    compute_htilde_beta,
    e_witt_class,
    functor_Fe,
    functor_Ge,
    similitude_scale,
    split,
    trace_transfer,
    witt_tower_of,
)
from .endo import (
    EndoClassToken,
    EndoParameter,
    LiftEntry,
    WittType,
    count_parameters,
    degree,
    enumerate_parameters,
    lift,
    norm_containment,
    validate as validate_parameter,
    witt_type_equiv,
)

__all__ = [
    "FElement", "FieldConfig", "QuadExtElement", "QuadExtField",
    "find_nonsquare_unit_L", "norm_trace_L", "solve_norm_equation",
    "tau_conj",
    "QuaternionElement", "congruent_mod_nuD", "quat_mul",
    "DiagonalForm", "HermitianForm", "cayley_isometry", "congruence_basis",
    "diagonalize", "reduced_norm", "trace_lift_hL", "twist", "validate",
    "witt_decompose",
    "WittClassD", "anisotropic_dim", "class_of_form", "classify_line",
    "equivalence_oracle", "is_isotropic", "witt_add",
    "EDForm", "EWittClass", "IdempotentE", "SplitData", "WittTowerValue",
    "compute_htilde_beta", "e_witt_class", "functor_Fe", "functor_Ge",
    "similitude_scale", "split", "trace_transfer", "witt_tower_of",
    "EndoClassToken", "EndoParameter", "LiftEntry", "WittType",
    "count_parameters", "degree", "enumerate_parameters", "lift",
    "norm_containment", "validate_parameter", "witt_type_equiv",
]
