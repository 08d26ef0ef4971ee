"""Local team logics: model checking, translations, bisimulation,
characteristic formulas, and prefix-class reductions over finite
dependence models."""

from .bisim import (
    BisimRelation,
    BisimResult,
    FailureWitness,
    atom_agreement,
    bisimilarity,
    canonical_atoms,
    check_is_bisimulation,
    comvar,
    refine_step,
)
from .charform import char_formula, char_formula_all
from .checker import (
    CheckResult,
    CheckStats,
    Evaluator,
    check,
    check_global_atom,
    eval_local_atom,
    extension,
)
from .fo import (
    EvalError,
    TranslationError,
    build_standard_relational_model,
    eval_fo,
    guarded_translation,
    modal_translation,
    parse_fo,
    print_fo,
    standard_translation,
)
from .model import (
    DependenceModel,
    MaterializedTeam,
    ModelError,
    PointedModel,
    Structure,
    disjoint_union,
    dump_model,
    expand,
    full_team,
    load_model,
    materialize_fo_team,
    variable_distinguished,
)
from .reduce import (
    ExtractedModel,
    KahrSentence,
    ReduceError,
    extract_classical_model,
    kahr_fo_sentence,
    parse_kahr,
    reduce_to_equality,
    reduce_to_inclusion,
    rewrite_vd,
    witness_model,
)
from .syntax import (
    LFD,
    LFD_EQ,
    And,
    Anon,
    Dep,
    Eq,
    Excl,
    Exists,
    FiniteType,
    Forall,
    Formula,
    FormulaError,
    Incl,
    Ind,
    Neq,
    NInd,
    Not,
    OmegaProfile,
    Or,
    RelLit,
    free_vars,
    infer_omega,
    is_nnf,
    negate_atom,
    parse_formula,
    print_formula,
    quantifier_rank,
    to_nnf,
    validate,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
