"""Exact-arithmetic verification of Hopf quasigroups and coquasigroups,
Long dimodules, D-equation solutions, and smash (co)products.

All computations are over Q or GF(p) with exact equality; every law checker
returns a VerificationReport with a basis-index witness on failure.
"""

from .actions import (ActionData, CoactionData, check_antipode_colinear,
                      check_antipode_linear, check_comodule,
                      check_coqm_algebra, check_coqm_coalgebra, check_module,
                      check_qm_algebra, check_qm_coalgebra,
                      check_quasicomodule, check_quasimodule)
from .dimodules import (OVER_COQUASIGROUP, OVER_QUASIGROUP, LongDimodule,
                        RMap, build_from_comodule, build_from_quasimodule,
                        check_adjunction, check_compatibility,
                        check_d_equation, check_lemma_identities,
                        check_long_dimodule, d_map, tensor_dimodule,
                        trivial_action_dimodule, trivial_coaction_dimodule,
                        unit_dimodule)
from .fields import GF, QQ
from .loops import (LoopTable, check_ip_loop, is_associative, loop_algebra,
                    search_ip_loops)
from .report import VerificationReport
from .smash import (CosmashInput, RoundtripReport, SmashInput,
                    build_smash_coproduct, build_smash_product,
                    check_cocommu, check_commu, check_comodcoass,
                    check_modass, theorem_cosmash_roundtrip,
                    theorem_smash_roundtrip)
from .structures import (HopfCoquasigroup, HopfQuasigroup,
                         check_antipode_basic, check_bialgebra_compat,
                         check_coq_identities, check_hopf_coquasigroup,
                         check_hopf_quasigroup, check_quasi_identities,
                         check_unital_counital, dualize)
from .tensors import SparseTensor

__all__ = [
    "ActionData", "CoactionData", "GF", "HopfCoquasigroup", "HopfQuasigroup",
    "LongDimodule", "LoopTable",
    "OVER_COQUASIGROUP", "OVER_QUASIGROUP", "QQ", "RMap", "SparseTensor",
    "VerificationReport", "build_from_comodule",
    "build_from_quasimodule", "check_adjunction", "check_antipode_basic",
    "check_antipode_colinear", "check_antipode_linear",
    "check_bialgebra_compat", "check_comodule", "check_compatibility",
    "check_coq_identities", "check_coqm_algebra", "check_coqm_coalgebra",
    "check_d_equation", "check_hopf_coquasigroup", "check_hopf_quasigroup",
    "check_ip_loop", "check_lemma_identities", "check_long_dimodule",
    "check_module", "check_qm_algebra", "check_qm_coalgebra",
    "CosmashInput", "RoundtripReport", "SmashInput",
    "build_smash_coproduct", "build_smash_product", "check_cocommu",
    "check_commu", "check_comodcoass", "check_modass",
    "theorem_cosmash_roundtrip", "theorem_smash_roundtrip",
    "check_quasi_identities", "check_quasicomodule", "check_quasimodule",
    "check_unital_counital", "d_map",
    "dualize", "is_associative", "loop_algebra",
    "search_ip_loops", "tensor_dimodule",
    "trivial_action_dimodule", "trivial_coaction_dimodule", "unit_dimodule",
]
