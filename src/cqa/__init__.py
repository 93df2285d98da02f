"""Static classification and range-consistent counting for self-join-free
conjunctive queries under primary-key constraints."""

from .attacks import (
    AttackGraph,
    AttackWitness,
    FrozenVariables,
    attack_graph,
    attack_graph_dot,
    attacks_variable,
    frozen_vars,
)
from .classify import (
    ClassificationReport,
    CyclicAttackGraphError,
    IdSetViolation,
    candidate_id_set,
    fuxman_graph,
    in_cforest,
    in_cparsimony,
    is_id_set,
)
from .errors import AnalysisRefusal, CqaError, InputError, InternalError
from .evaluate import (
    AnswerSet,
    CountAnswer,
    NotInCparsimonyError,
    RangeAnswer,
    certain_answers,
    count_by,
    cqacount_oracle,
    cqacount_parsimonious,
    evaluate,
    is_optimistic_repair,
    is_pessimistic_repair,
)
from .fds import (
    FunctionalDependency,
    FunctionalDependencySet,
    SequentialProof,
    fdset,
    keycl,
    sequential_proof,
)
from .instances import (
    DEFAULT_REPAIR_CAP,
    Block,
    DatabaseInstance,
    Fact,
    RepairSpaceOverflow,
    build_3dm_instance,
    enumerate_repairs,
    is_repair_of,
    load_bundle,
    repair_count,
    save_bundle,
    threedm_query,
)
from .queries import (
    Atom,
    ConjunctiveQuery,
    QueryError,
    RelationSignature,
    Term,
    make_bound,
    make_free,
    parse_query,
    query_graph,
    serialize_query,
    substitute,
)

__version__ = "0.1.0"
