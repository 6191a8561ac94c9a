"""Goodness-of-fit tests for parametric bivariate extremal dependence.

Rank-based empirical angular measures with Euclidean-likelihood reweighting,
a weighted L1-Wasserstein test statistic against the logistic or
Hüsler–Reiss angular measure, and Monte-Carlo critical values from the
simulated asymptotic null law.
"""

# numpy >= 2 loads numpy.random on first use; every command draws, so it
# loads here rather than in the first fit.
import numpy.random  # noqa: F401

from .geometry import WeightKind
from .models import (
    AngularLaw,
    HuslerReissModel,
    LogisticModel,
    ParamEstimate,
    QuadratureError,
    estimate_param,
    get_law,
    make_model,
)
from .empirical import (
    AngularDataset,
    DegenerateDataError,
    angular_dataset,
    default_k,
    empirical_angular_cdf,
    empirical_stdf,
    select_exceedances,
)
from .wasserstein import StatisticBatch, TestStatistic, test_statistic, weighted_l1_distance
from .limitlaw import (
    DESK_GRID,
    PAPER_GRID,
    CriticalValueTable,
    FieldGrid,
    UnsupportedFeatureError,
    critical_value_table,
    p_value,
    quantile,
    simulate_L,
)
from .datagen import sample, scenario_copula
from .experiments import (
    MultiTestReport,
    PowerCurve,
    ScenarioConfig,
    TestReport,
    benjamini_hochberg,
    bonferroni,
    fit,
    fit_all,
    run_pairwise_analysis,
    run_power_study,
    run_single_test,
)

__version__ = "0.1.0"

__all__ = [
    "WeightKind",
    "AngularLaw",
    "HuslerReissModel",
    "LogisticModel",
    "ParamEstimate",
    "QuadratureError",
    "estimate_param",
    "get_law",
    "make_model",
    "AngularDataset",
    "DegenerateDataError",
    "angular_dataset",
    "default_k",
    "empirical_angular_cdf",
    "empirical_stdf",
    "select_exceedances",
    "StatisticBatch",
    "TestStatistic",
    "test_statistic",
    "weighted_l1_distance",
    "DESK_GRID",
    "PAPER_GRID",
    "CriticalValueTable",
    "FieldGrid",
    "UnsupportedFeatureError",
    "critical_value_table",
    "p_value",
    "quantile",
    "simulate_L",
    "sample",
    "scenario_copula",
    "MultiTestReport",
    "PowerCurve",
    "ScenarioConfig",
    "TestReport",
    "benjamini_hochberg",
    "bonferroni",
    "fit",
    "fit_all",
    "run_pairwise_analysis",
    "run_power_study",
    "run_single_test",
    "__version__",
]
