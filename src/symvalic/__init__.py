"""symvalic: a symbolic value-flow analyzer for a small contract language."""

from .deps import (
    Conflict, DependencyBudget, DependencyMap, TrackingPlan, combine, restrict,
)
from .ir import Contract, Function, Statement, harvest_constants, validate
from .parser import ParseError, parse
from .symexpr import (
    ARITY, Const, Expr, OWNER, OWNER_UNIQUE, Op, Sym, UNPRIVILEGED_USER,
    USER_UNIQUE, eval_concrete, implies, normalize, value_for_var,
)
from .valueflow import (
    AnalysisConfig, AnalysisResult, Inference, ReachabilityFact, analyze,
    seed_inputs,
)

__version__ = "0.1.0"

__all__ = [
    "ARITY", "AnalysisConfig", "AnalysisResult", "Conflict", "Const",
    "Contract", "DependencyBudget", "DependencyMap", "Expr", "Function",
    "Inference", "OWNER", "OWNER_UNIQUE", "Op", "ParseError",
    "ReachabilityFact", "Statement", "Sym", "TrackingPlan",
    "UNPRIVILEGED_USER", "USER_UNIQUE", "analyze", "combine", "eval_concrete",
    "harvest_constants", "implies", "normalize", "parse", "restrict",
    "seed_inputs", "validate", "value_for_var",
]
