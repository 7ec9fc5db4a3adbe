"""Empirical symbolic systems along Folner sequences.

Library + CLI for computing multi-shift intersection densities of subsets
of concrete amenable groups, tabulating empirical cylinder measures on the
binary shift space, cross-checking against exactly solvable systems,
comparing correlation spectra, and evaluating weighted correlation
moments of disk-valued function families.
"""

__version__ = "0.1.0"

from .groups import GroupSpec, FolnerSpec
from .sets import (
    Bitmask, Complement, ComponentCongruence, Congruence, DyadicBlocks,
    OrbitSet, RotationSet, SetSpec, indicator_bits,
)
from .density import (
    density_at, extract_subsequence, intersection_count,
    pair_correlation_fft, pair_correlation_naive, upper_density,
)
from .cylinders import (
    CylinderSpec, MeasureTable, additivity_check, cylinder_measure,
    furstenberg_report, invariance_defect,
)
from .oracles import (
    MarkovSystem, PeriodicSystem, RotationSystem, verify_correspondence,
)
from .spectrum import (
    CONSISTENT, DISTINGUISHED, compare_pairs, correlation_spectrum,
)
from .moments import (
    AveragingScheme, ExponentialFn, IndicatorFn, NormalizerRule, ProductFn,
    RandomDiskFn, WeightRule, accordance_check, exponential_oracle,
    scheme_normalization, weighted_moment,
)
