"""Numerical laboratory for rough pseudo-differential operators on the
band-limited periodic grid: dyadic Littlewood-Paley analysis, frequency
modulation limits, pointwise maximal-function inequalities, and Besov /
Triebel-Lizorkin norm measurement."""

from .errors import (AliasingRisk, AnnulusOutOfRange, BadExponent,
                     BadExponents, BadRadii, ConfigError, DepthUnsupported,
                     EmptyShell, GridMismatch, GridTooCoarse, LevelOutOfRange,
                     NotAMultiplier, NotResolvable, ParadiffError,
                     SupportViolation, TooLarge)
from .torus import (FreqSet, SpectralField, TorusGrid, annulus_set,
                    band_project, sumset, transform)
from .lp import (LPPartition, ModulationFunction, cumulative_block,
                 dyadic_block, make_modulation, make_partition, minimal_gap)
from .symbols import (ChingProfile, DiscreteSymbol, LocalizationCutoff,
                      SymbolSeminorm, TDCSeminorm, ching_symbol,
                      estimate_seminorm, localize, partial_ft, symbol_band,
                      tdc_seminorm, twisted_diagonal_check)
from .operators import (LimitReport, ParaSplit, SupportReport, apply,
                        compose_multiplier, discrete_adjoint_probe,
                        modulated_apply, modulation_limit, para_split,
                        saturation_level, spectral_support_bound,
                        support_inclusions)
from .pointwise import (MaxParams, check_factorization, hl_max, mihlin_bound,
                        paraterm_pointwise_check, peetre_max, ring_window,
                        symbol_factor, yamazaki_check, yamazaki_constant)
from .spaces import (CoronaSpec, NormSpec, corona_sum_check, dyadic_dilate,
                     embedding_check, embedding_constant,
                     fefferman_stein_check, homog_besov_norm, marschall_check,
                     space_norm, weierstrass_signal)

__version__ = "0.1.0"
