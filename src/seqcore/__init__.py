"""seqcore: a small functional-language kernel on a focused, polarized
intuitionistic sequent calculus.

Surface programs in equational style compile to a four-sorted core calculus
(terms, patterns, data, spines), are typechecked by a propositional or a
dependent rule set, and run by cut-elimination rewriting.
"""

from .syntax import (
    Name, fresh, Mode,
    NegType, Atom, Up, Imp, With, Pi,
    PosType, Down, Or, Prod, Sigma,
    Term, Done, Lam, App, Pair, Split, BindCut, AppCut,
    Pattern, Var, PPair, POr, PAt, PWild,
    DataVal, Thunk, DPair, Inl, Inr,
    Spine, Nil, Cons, Proj1, Proj2, Kappa,
    Sig, SigEntry, eta,
    well_formed_neg, well_formed_pos,
    spine_concat, select_branch, alpha_eq, size, is_cut_free,
    subst_data,
)
from .diag import Diagnostic, Span, CheckError, ParseError
from .check import check_term, check_data, check_spine, infer_term, UNKNOWN
from .check_dep import dep_check_term, dep_check_spine, dep_bind_cut, convert, DepCtx
from .reduce import normalize, trace, NormalizeResult, FuelExhausted
from .core_text import print_term, print_data, print_pattern, print_type
from .surface import (parse, polarize, compile_clauses, load_program, Program,
                      CompileFail)

__version__ = "0.1.0"
