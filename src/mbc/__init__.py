"""Model-based contracts: finite model values, a contract engine with
frame expansion and abstract purity, a contracted container library,
brute-force completeness and adequacy checkers, a seeded random-testing
harness, and a Boogie theory exporter."""

from .contracts import (
    AbstractState, Clause, ContainerSpec, ContractViolation, Ctx, Feature,
    ModelSignature, PreconditionRejected, REGISTRY, abstract_state,
    checked_command, checked_constructor, checked_query, expand_frame,
    serialize_state,
)
from .model_math import (
    DomainError, MBag, MMap, MRel, MSeq, MSet, Ref, int_interval, order_key,
    to_text,
)

__all__ = [
    "AbstractState", "Clause", "ContainerSpec", "ContractViolation", "Ctx",
    "DomainError", "Feature", "MBag", "MMap", "MRel", "MSeq", "MSet",
    "ModelSignature", "PreconditionRejected", "REGISTRY", "Ref",
    "abstract_state", "checked_command", "checked_constructor",
    "checked_query", "expand_frame", "int_interval", "order_key",
    "serialize_state", "to_text",
]

__version__ = "0.1.0"
