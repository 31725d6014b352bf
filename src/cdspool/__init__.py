"""Credit-portfolio analytics for asymptotically large CDS books.

Core pieces: closed-form Riccati transforms (:mod:`cdspool.riccati`),
jump-size laws (:mod:`cdspool.jumps`), the Monte-Carlo default-system
engines (:mod:`cdspool.simulation`), the large-pool limit exposure
(:mod:`cdspool.exposure`), affine counterparty kernels and the bilateral
CVA (:mod:`cdspool.kernels`), and the experiment harness/CLI
(:mod:`cdspool.harness`, :mod:`cdspool.cli`).
"""

__version__ = "0.1.0"

from .errors import AccuracyError, ConfigError
from .exposure import (LimitConfig, build_name_sequence, empirical_measure_eval,
                       exposure_limit, limit_exp_test, survival_fhat)
from .jumps import BveParams, mgf_bve, mgf_bve_partials, mgf_exp, sample_bve
from .kernels import (BcvaResult, SweepResult, bcva, joint_survival, kernel,
                      kernel_coefficients, kernel_ode_residuals, sensitivity_sweep)
from .riccati import (integral_b, integral_beta, riccati_b, riccati_beta,
                      riccati_beta_general, varpi)
from .simulation import (CounterpartyParams, CounterpartySide, NameParams, Pool,
                         exact_book_values, mc_kernel_oracles, mc_limit_transform)

__all__ = [
    "__version__",
    "AccuracyError", "ConfigError",
    "varpi", "riccati_b", "integral_b", "riccati_beta", "integral_beta",
    "riccati_beta_general",
    "BveParams", "mgf_exp", "mgf_bve", "mgf_bve_partials", "sample_bve",
    "NameParams", "CounterpartySide", "CounterpartyParams", "Pool", "exact_book_values",
    "mc_kernel_oracles", "mc_limit_transform",
    "LimitConfig", "survival_fhat", "exposure_limit",
    "limit_exp_test", "empirical_measure_eval", "build_name_sequence",
    "BcvaResult", "SweepResult", "kernel_coefficients", "kernel", "joint_survival",
    "bcva", "kernel_ode_residuals", "sensitivity_sweep",
]
