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
    add_prec,
    add_weak,
    extends,
    intersect,
    is_relational,
    new_poset,
    new_structure,
    poset_to_structure,
    project,
)
from .orders import (
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
    qs_order_violation,
    qso_from_poset,
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
    is_csc_subset,
    is_qsa,
    legal_extensions,
    predominants,
    probe,
    qsa_witness,
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
    close,
    closure_step,
    is_qsc,
    qsc_violation,
)
from .oracles import (
    PropertyCheck,
    add_element,
    close_oracle,
    csc_subsets_naive,
    enumerate_posets,
    is_qsa_naive,
    is_qso_stratum,
    qsa_witness_naive,
    qsc_property_suite,
    qso_add_isolated,
    qso_empty,
    qso_projection,
    qso_seq_compose,
    reindex_poset,
    reindex_structure,
)

__all__ = [name for name in dir() if not name.startswith("_")]
