"""Quasi-stratified orders and the structures that specify them.

The library covers the full pipeline: recognising order classes,
decomposing quasi-stratified orders into stratum trees, deciding
quasi-stratified acyclicity of two-relation structures, enumerating
their maximal extensions (saturations), and computing the structure
closure that intersects them all.
"""

from .relcore import (
    BinRel,
    Domain,
    InternalError,
    Poset,
    Structure,
    add_element,
    add_prec,
    add_weak,
    extends,
    intersect,
    is_relational,
    new_poset,
    new_structure,
    poset_to_structure,
    project,
    reindex_poset,
    reindex_structure,
)
from .orders import (
    enumerate_posets,
    forbidden_cycle_interval,
    forbidden_cycle_stratified,
    forbidden_cycle_total,
    interval_order_violation,
    interval_realization,
    is_interval_order,
    is_partial_order,
    is_stratified_order,
    is_total_order,
    partial_order_violation,
    stratified_order_violation,
    stratified_partition,
    total_order_violation,
)
from .qso import (
    QsOrder,
    enumerate_qs_orders,
    factorize_strata,
    is_qs_order,
    is_qso_stratum,
    qs_order_violation,
    qso_add_isolated,
    qso_empty,
    qso_from_poset,
    qso_projection,
    qso_seq_compose,
    stratum_base,
)
from .qsseq import (
    QsSeq,
    QssStratum,
    enumerate_qs_seqs,
    format_seq,
    is_valid_seq,
    leaf,
    node,
    order_to_seq,
    random_qs_seq,
    seq_domain,
    seq_from_json,
    seq_to_json,
    seq_to_order,
    seq_violation,
    stratum_domain,
)
from .qsa import (
    CscWitness,
    LegalExtensions,
    NotAcyclicError,
    Prober,
    csc_components,
    csc_subsets_naive,
    is_csc_subset,
    is_qsa,
    is_qsa_naive,
    legal_extensions,
    predominants,
    probe,
    qsa_witness,
    qsa_witness_naive,
    random_qsa_structure,
)
from .saturate import (
    SaturationSet,
    all_qsm_structures,
    is_qsm,
    one_saturation,
    qsm_to_qso,
    qsm_violation,
    qso_to_qsm,
    saturations,
)
from .closure import (
    ClosureReport,
    PropertyCheck,
    close,
    close_oracle,
    closure_step,
    is_qsc,
    qsc_property_suite,
    qsc_violation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
