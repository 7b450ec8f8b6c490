"""repro.fuzz — differential fuzzing of the bound-derivation pipeline.

The subsystem industrializes the bug-finding loop that PR 2 (counting vs
enumeration) and PR 3 (symbolic vs concrete reachability) ran by hand: a
seeded generator mass-produces random affine programs, a set of pluggable
*differential oracles* checks each one against an independent ground truth,
and a campaign runner fans the cases through the streaming scheduler,
shrinks every failure to a minimal reproduction and records it in a
replayable JSON crash corpus.

* :mod:`~repro.fuzz.generator` — deterministic ``(seed, profile)`` →
  :class:`~repro.ir.program.AffineProgram` generation (the tests/rel
  generator, promoted and generalized) plus the program-surgery operators
  the shrinker uses;
* :mod:`~repro.fuzz.oracles` — the fixed :data:`ORACLES` table of the five
  differentials (executors, backends, store, sandwich, counting);
* :mod:`~repro.fuzz.runner` — campaigns, shrinking, corpus, replay;
* ``python -m repro fuzz`` — the CLI front-end.
"""

from .generator import (
    DEP_POOL_SMALL,
    PROFILES,
    FuzzProfile,
    apply_reduction,
    case_program,
    delete_dependence,
    delete_dimension,
    delete_statement,
    fingerprint_for,
    profile_from_dict,
    profile_to_dict,
    random_program,
    resolve_profile,
)
from .oracles import ORACLES, OracleContext, OracleVerdict, oracle_names, run_oracle
from .runner import (
    CORPUS_KIND,
    CORPUS_SCHEMA,
    CampaignFailure,
    CampaignResult,
    ReplayOutcome,
    load_corpus_entry,
    replay_entry,
    run_campaign,
    shrink_case,
    write_corpus_entry,
)

__all__ = [
    "CORPUS_KIND",
    "CORPUS_SCHEMA",
    "CampaignFailure",
    "CampaignResult",
    "DEP_POOL_SMALL",
    "FuzzProfile",
    "ORACLES",
    "OracleContext",
    "OracleVerdict",
    "PROFILES",
    "ReplayOutcome",
    "apply_reduction",
    "case_program",
    "delete_dependence",
    "delete_dimension",
    "delete_statement",
    "fingerprint_for",
    "load_corpus_entry",
    "oracle_names",
    "profile_from_dict",
    "profile_to_dict",
    "random_program",
    "replay_entry",
    "resolve_profile",
    "run_campaign",
    "run_oracle",
    "shrink_case",
    "write_corpus_entry",
]
