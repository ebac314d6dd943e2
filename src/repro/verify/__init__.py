"""repro.verify: invariant oracle, fuzzer, and differential conformance.

Three cooperating pieces keep the simulator honest:

* :mod:`repro.verify.oracle` — a catalogue of model-correctness laws every
  simulation must satisfy (byte conservation, timeline tiling, paradigm
  bounds), checked per result, per live execution, and across paradigm
  families;
* :mod:`repro.verify.fuzzer` — a seeded generator of well-formed,
  analyzer-clean trace programs, registered as the ``fuzz/<seed>`` workload
  family so any process can rebuild them by name;
* :mod:`repro.verify.differential` — the harness that pushes each fuzzed
  program through all four execution paths (direct, disk cache, process
  pool, live service) and asserts byte-identical results plus metamorphic
  relations.

``repro verify`` on the command line drives all three and writes
machine-readable failure-repro artifacts (:mod:`repro.verify.artifact`)
with greedily minimised programs (:mod:`repro.verify.minimize`).
"""

from .artifact import (
    ARTIFACT_VERSION,
    artifact_program,
    build_artifact,
    load_artifact,
    replay_violations,
    write_artifact,
)
from .differential import (
    DEFAULT_PARADIGMS,
    PATHS,
    CaseReport,
    ServiceHandle,
    VerifyReport,
    canonical_payload,
    check_memo_free,
    run_differential,
)
from .fuzzer import FuzzSpec, FuzzWorkload, generate_program, is_fuzz_workload
from .minimize import minimize_program, shrink_stats
from .oracle import (
    ORACLE_CHECKS,
    Violation,
    check_execution,
    check_family,
    check_result,
    oracle_catalogue,
)
from .sanitizer import MUTATORS, SanitizerReport, run_sanitizer

__all__ = [
    "ARTIFACT_VERSION",
    "DEFAULT_PARADIGMS",
    "MUTATORS",
    "ORACLE_CHECKS",
    "PATHS",
    "CaseReport",
    "FuzzSpec",
    "FuzzWorkload",
    "SanitizerReport",
    "ServiceHandle",
    "VerifyReport",
    "Violation",
    "artifact_program",
    "build_artifact",
    "canonical_payload",
    "check_execution",
    "check_family",
    "check_memo_free",
    "check_result",
    "generate_program",
    "is_fuzz_workload",
    "load_artifact",
    "minimize_program",
    "oracle_catalogue",
    "replay_violations",
    "run_differential",
    "run_sanitizer",
    "shrink_stats",
    "write_artifact",
]
