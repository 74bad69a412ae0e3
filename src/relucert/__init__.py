"""Robustness certification for ReLU networks.

Certifies L-infinity robustness with a family of bound methods built on the
exact convex hull of a ReLU neuron composed with its multivariate affine
pre-activation over a box: interval arithmetic and propagation baselines, a
propagation method that swaps violated hull inequalities into the bounding
functions (``fastc2v``), and an LP method that adds them as cutting planes
(``optc2v``).
"""

from .network import (BoxDomain, Network, NetworkInvariantError,
                      NetworkParseError, Neuron, classify, eval_network, forward,
                      generate_random_network, load_network, save_network)
from .hull import HullTable, Separations
from .propagation import (METHODS, BoundingFunctions, Bounds, Objectives, Swaps, backward_pass,
                          box_maximize, compute_all_bounds, forward_pass, initial_scales,
                          tightened_bound)
from .simplex import Lockstep, LpBatchSolution, LpModel, LpStatus
from .relaxation import build_delta_lp, optc2v_bound
from .verifier import (RobustnessInstance, VerificationReport, attack_upper_bound,
                       batch_verify, build_input_box, generate_instances,
                       load_instances, margin_objective, save_instances, verify)

__version__ = "0.1.0"
