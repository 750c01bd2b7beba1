"""Typed concurrent lambda-calculi over disjunctive axioms.

The package splits along the pipeline: formulas and axiom schemes, term
syntax with parser and printer, the type checker, single-step reduction,
the terminating master strategy, and checkers that validate whole runs.
"""

from .analysis import (  # noqa: F401
    NotNormal,
    PropertyReport,
    audit_trace,
    check_parallel_nf_property,
    check_subformula,
    communication_measure,
    is_normal,
)
from .axioms import (  # noqa: F401
    AxiomScheme,
    AxiomValidationError,
    broadcast_axiom,
    cyclic_axiom,
    em_axiom,
    general_axiom,
    goedel_axiom,
    preset,
    show_axiom,
)
from .formulas import (  # noqa: F401
    BOT,
    TOP,
    Atom,
    Bot,
    Conj,
    Disj,
    Formula,
    Impl,
    Top,
    complexity,
    neg,
    prime_factors,
    proper_subformulas,
    show_formula,
    subformulas,
)
from .generator import GenConfig, default_context, generate, generate_corpus  # noqa: F401
from .parser import (  # noqa: F401
    LaxSyntaxError,
    Program,
    parse_axiom,
    parse_formula,
    parse_program,
    parse_term,
)
from .printer import show_term  # noqa: F401
from .rewrite import (  # noqa: F401
    InvalidRedex,
    NotParallelForm,
    NotSimplyTyped,
    Redex,
    RedexKind,
    find_redexes,
    height,
    is_parallel_form,
    is_value,
    pick_redex,
    redex_peaks,
    redexes_at,
    session_comm_complexity,
    step,
    value_complexity,
)
from .strategy import (  # noqa: F401
    ParallelFormFailure,
    StepBudgetError,
    StepLimitExceeded,
    StrategyError,
    Trace,
    TraceStep,
    normalize,
)
from .terms import (  # noqa: F401
    App,
    Case,
    Chan,
    Contract,
    Efq,
    Inj,
    Lam,
    Pair,
    ParBind,
    Proj,
    Term,
    Underline,
    Unit,
    Var,
    alpha_eq,
    free_chans,
    free_names,
    free_vars,
    term_size,
)
from .typecheck import (  # noqa: F401
    SubjectReductionReport,
    TypeIssue,
    TypingContext,
    TypingError,
    check,
    check_subject_reduction,
    infer_type,
    type_of,
)

__version__ = "0.1.0"
