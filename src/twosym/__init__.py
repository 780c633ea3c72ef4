"""Genus-two 3-manifold crystallizations from integer 6-tuples."""

from .catalogue import (
    SUITES,
    TSV_COLUMNS,
    CatalogueRecord,
    SuiteReport,
    assign_orbit_ids,
    build_catalogue,
    classify_record,
    enumerate_admissible,
    enumerate_canonical,
    records_from_tsv,
    records_to_tsv,
    run_suite,
)
from .graphs import (
    COLOURS,
    Block,
    ColouredGraph,
    Dipole,
    cancel_block,
    cancel_block_by_dipoles,
    cancel_dipole,
    cp_isomorphic,
    embedding_euler,
    find_blocks,
    is_contracted,
    is_gem,
    permute_colours,
    to_dot,
)
from .homology import (
    AbelianGroupSignature,
    h1,
    h1_of_tuple,
    h1_presentation,
    lens_expectation,
    parse_signature,
    smith_normal_form,
)
from .moves import (
    canonical,
    canonical_candidates,
    delta,
    h_orbit,
    is_canonical,
    psi,
    psi1,
    psi2,
    psi3,
    sigma,
    sigma_neighbors,
)
from .orbits import (
    OrbitGraph,
    TrapWitness,
    ascend_witness,
    descent_minimal,
    descent_root,
    explore,
    is_minimal,
    is_root,
    is_trap,
    minimize,
)
from .surgery import (
    SWAP_01,
    SigmaVerification,
    SurgeryError,
    SurgeryTrace,
    build_gf,
    reorientation_involution,
    table_row,
    verify_sigma_constructively,
)
from .tuples import (
    AdmissibilityReport,
    ConditionError,
    SixTuple,
    admissibility,
    build_graph,
    is_admissible,
    parse_tuple,
    rho_symmetry,
    zero_q_count,
)

__all__ = [name for name in dir() if not name.startswith("_")]
