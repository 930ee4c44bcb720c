"""Boolean frames, congruence lattices, and congruence-extension checking."""

from .core import (ATOM_CAP, CepLabError, Element, FiniteAlgebra, ParseError,
                   ResourceLimitError, UsageError, ValidationError)
from .periodic import (EMPTY, EVENS, MULT4, NATS, ODDS, CaseTag, EPSet,
                       EPSetSampler, classify, co_initial_segment_set,
                       co_singleton_set, cofinite_set, ep_bicond,
                       ep_boolean_op, ep_join, ep_leq, ep_meet, ep_neg,
                       finite_set, initial_segment_set, make_periodic)
from .frames import (EXHAUSTIVE, Exhaustive, FiniteFrame, KripkeFrame,
                     PROPERTIES, Sampled, SymbolicFrame, Verdict,
                     check_property, complex_algebra, constant_zero_frame,
                     family_frame, finite_frame, flat, flat_condition,
                     frame_product, identity_frame, neg_op, negation_frame,
                     sharp, star, wheel, wheel_kripke)
from .terms import (Clause, Identity, Term, check_clause, check_identity,
                    eval_term, fix_variable, fpow, free_vars, iota,
                    make_clause, nbar, parse_identity, parse_term, relativize,
                    relativize_identity, substitute)
from .congruence import (BUILTIN_TRACES, CongruenceLattice, ReplayReport,
                         Subalgebra, TraceStep, cep_check_full, cep_refute,
                         congruence_lattice, congruential_in_subalgebra,
                         four_block_predicate, generate_subalgebra,
                         infinite_odds_filter, is_congruential, is_simple,
                         largest_congruential_below, replay_trace,
                         subalgebra_frame)
from .verification import ItemResult, run_all, run_item

__version__ = "0.1.0"
