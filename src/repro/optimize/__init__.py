"""Unconstrained programming: Step 3 of the paper (Sect. 2).

Thm. 4.3 holds for any algorithm that searches ``R^n`` for minimum points
of the representing function.  This package ships the one the paper uses:

* local optimization: :mod:`repro.optimize.local`, Powell's method (the
  paper's ``LM``);
* global optimization: :func:`repro.optimize.basinhopping.basinhopping`, our
  implementation of the MCMC basin-hopping procedure of Algorithm 1
  (lines 24-34).
"""

from repro.optimize.basinhopping import basinhopping
from repro.optimize.local import (
    available_local_minimizers,
    get_local_minimizer,
    powell,
    register_local_minimizer,
    unregister_local_minimizer,
)
from repro.optimize.mcmc import metropolis_accept, propose_perturbation
from repro.optimize.result import OptimizeResult

__all__ = [
    "OptimizeResult",
    "available_local_minimizers",
    "basinhopping",
    "get_local_minimizer",
    "metropolis_accept",
    "powell",
    "propose_perturbation",
    "register_local_minimizer",
    "unregister_local_minimizer",
]
