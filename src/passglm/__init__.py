"""Polynomial approximate sufficient statistics for generalized linear models.

The package builds approximate Bayesian posteriors for GLMs from a single
pass over the data: a mapping function is replaced by a low-order Chebyshev
polynomial, which turns monomials of the records into sufficient statistics
that stream and merge exactly.  Closed-form Gaussian posteriors come out of
the degree-2 logistic case; a Newton path covers general degrees and models;
and exact-likelihood baselines (Laplace, adaptive MALA, SGD) plus evaluation
metrics support head-to-head comparisons.
"""

from .chebyshev import (
    BoundReport,
    ChebBasis,
    PolyApprox,
    cheb_basis,
    deriv_bound,
    eval_poly,
    eval_poly_deriv,
    fit_chebyshev,
    sup_bound_exp,
    sup_bound_logit,
    sup_bound_shuber,
)
from .mappings import (
    MappingSpec,
    Term,
    fit_terms,
    get_mapping,
    log_likelihood,
    log_likelihood_grad,
    log_likelihood_hess,
    mapping_cauchy,
    mapping_gamma,
    mapping_logit,
    mapping_poisson,
    mapping_probit,
    mapping_shuber,
)
from .suffstats import (
    MultiIndexSet,
    SuffStats,
    deserialize,
    enumerate_indices,
    load_stats,
    merge,
    new_stats,
    save_stats,
    serialize,
)
from .posterior import (
    GaussianPosterior,
    MapCertificate,
    PriorSpec,
    SurrogatePosterior,
    map_error_certificate,
    posterior_general,
    posterior_lr2,
)
from .baselines import ChainOutput, MalaConfig, laplace, mala, sgd, split_rhat
from .metrics import (
    EvalReport,
    compare_posteriors,
    gaussian_w2,
    inner_product_histogram,
    roc_auc,
    test_nll,
    test_nll_predictive,
)
from .data import (
    ArrayStream,
    LibsvmStream,
    ProjectedStream,
    ProjectionSpec,
    RecordStream,
    SyntheticStream,
    build_stats,
    parse_libsvm,
    project,
    run_sharded,
    synthesize,
    synthesize_arrays,
    write_libsvm,
)
from . import errors

__version__ = "0.1.0"
