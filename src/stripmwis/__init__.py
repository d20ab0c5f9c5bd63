"""Exact Max Weight Independent Set toolkit for graphs without long
induced subdivided claws, built around extended strip decompositions,
the matching-based combination step, and two border recursions."""

from .border import (BorderProfile, CombinationPlan, brute_force_border,
                     build_combination_plan, combine_esd, reconstruct_witness)
from .decompose import DecomposeOutcome, decompose, validate_outcome
from .errors import (CapacityError, ContractViolation, GenerationError,
                     InputError, InvariantError, ParseError, ToolkitError)
from .esd import (ExtendedStripDecomposition, Particle, check_pattern_degree,
                  components_esd, occurrence_bound, particles, restrict_esd,
                  validate_esd)
from .fileio import read_graph, write_graph
from .generate import generate_random_instance, generate_subdivided_claw
from .graph import WeightedGraph, line_graph
from .matching import AuxGraph, matching_bruteforce, max_weight_matching
from .oracle import mwis_bruteforce, verify_solution
from .patterns import (SubdividedClawWitness, contains_biclique_subgraph,
                       find_induced_sttt)
from .solver_biclique import (BicliqueSolverConfig, mwis_biclique,
                              solve_biclique)
from .solver_degree import (DegreeSolverConfig, compute_ell, mwis,
                            solve_degree)
from .treedec import (TreeDecomposition, build_weissauer, check_weissauer,
                      torso, validate_tree_decomposition)

__all__ = [name for name in dir() if not name.startswith("_")]
