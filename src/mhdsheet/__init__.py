"""Solver for the MHD shrinking-sheet similarity boundary-value problem.

Determines the shooting parameter alpha = f''(0) by exact Hankel
determinant root tracking, provides exponential-sum analytical
approximations, and verifies by Runge-Kutta integration and shooting.
"""

from .model import ModelParams
from .polyseries import AlphaPolynomial, TaylorTable, taylor_table, \
    evaluate_table, PadeApproximant, pade, pade_eval, DegenerateSystem, PoleNear
from .hankel import HankelConfig, RootSequence, hankel_entries, det_sign_at, \
    find_root, alpha_sequence, NoSignChange, MultipleRootsWarning
from .ansatz import AnsatzSolution, ResidualModes, residual_modes, solve_n1, \
    solve_n2, solve_general, eval_ansatz, ComplexDecay, RequiresNonzeroM, \
    NoPhysicalRoot, NoConvergence
from .ivp import IntegratorConfig, Profile, MonotonicityReport, rhs, \
    integrate, monotonicity_report, shoot_refine, auto_eta_max, Blowup, \
    StepUnderflow, BadBracket

__version__ = "0.1.0"
