"""Command-line interface.

Subcommands chain the library end to end::

    passglm synth --model logit --dim 10 --n 100000 --theta 0.5 --out data.svm
    passglm stats build --input data.svm --model logit --degree 2 --radius 4 \
        --out stats.pglm
    passglm fit --stats stats.pglm --model logit --degree 2 --radius 4 \
        --prior gaussian:4 --out posterior.json
    passglm baseline --method laplace --input data.svm --model logit \
        --prior gaussian:4 --out laplace.json
    passglm eval --posterior posterior.json --reference laplace.json \
        --test data.svm --model logit --out report.json

Every JSON document carries a ``schema_version`` field.  Posterior documents
(``gaussian``, and a ``surrogate`` one's ``laplace`` block) are schema 2:
``mean``, ``map``, ``logdet``, ``d``, ``domain_radius`` and ``multiplier`` are
JSON numbers, while the covariance Cholesky factor (its lower triangle,
row-major) and the surrogate's ``coefficients`` are standard base64 of
little-endian float64 under ``chol_lower_b64`` and ``coefficients_b64``:
formatting d**2 numbers cost nine times the fit at d = 500.  Schema 1
posterior documents, with the full factor as d*d numbers under
``chol_lower``, are still read.  The other documents keep schema 1.
"""

from __future__ import annotations

import argparse
import base64
import json
import logging
import sys

import numpy as np

from . import chebyshev
from .baselines import MalaConfig, laplace, mala, sgd
from .data import (
    LibsvmStream,
    _write_records,
    ProjectionSpec,
    build_stats,
    parse_libsvm,
    project,
    synthesize,
)
from .errors import InvalidInputError, PassGlmError
from .mappings import MAPPING_FACTORIES, _approximated_term, _records, get_mapping
from .metrics import compare_posteriors, inner_product_histogram, roc_auc, test_nll
from .posterior import GaussianPosterior, PriorSpec, posterior_general, posterior_lr2
from .suffstats import load_stats, merge, save_stats

SCHEMA_VERSION = 1
POSTERIOR_SCHEMA_VERSION = 2

log = logging.getLogger("passglm")


def _write_json(payload: dict, out: str | None):
    # compact: with an indent, json falls back to its pure-Python encoder
    text = json.dumps(payload)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _f8_b64(values: np.ndarray) -> str:
    """Standard base64 of ``values`` as little-endian float64, in C order."""
    return base64.b64encode(np.ascontiguousarray(values, dtype="<f8").tobytes()).decode("ascii")


def _f8_from_b64(text, count: int, field: str) -> np.ndarray:
    """The ``count`` float64 values that :func:`_f8_b64` wrote as ``text``;
    text that is not base64 or holds another count raises ``InvalidInputError``
    naming ``field``."""
    try:
        raw = base64.b64decode(text, validate=True)
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise InvalidInputError(f"{field} is not base64: {exc}") from None
    if len(raw) != 8 * count:
        raise InvalidInputError(f"{field} holds {len(raw)} bytes, need {count} float64 values")
    return np.frombuffer(raw, dtype="<f8").astype(float)


def _gaussian_fields(post: GaussianPosterior) -> dict:
    return {
        "mean": post.mean.tolist(),
        "chol_lower_b64": _f8_b64(post.chol[np.tri(post.d, dtype=bool)]),
        "logdet": post.logdet,
    }


def _posterior_to_json(post) -> dict:
    if isinstance(post, GaussianPosterior):
        return {
            "schema_version": POSTERIOR_SCHEMA_VERSION,
            "kind": "gaussian",
            "d": post.d,
            **_gaussian_fields(post),
        }
    return {
        "schema_version": POSTERIOR_SCHEMA_VERSION,
        "kind": "surrogate",
        "d": post.laplace.d,
        "degree": post.surface.index_set.M,
        "coefficients_b64": _f8_b64(post.coefficients),
        "map": post.map_estimate.tolist(),
        "domain_radius": post.domain_radius,
        "multiplier": post.multiplier,
        "laplace": _gaussian_fields(post.laplace),
    }


def _gaussian_from_json(doc: dict) -> GaussianPosterior:
    """The Gaussian of a posterior document: a ``gaussian`` one itself, a
    ``surrogate`` one's Laplace fit.

    Reads schema 2 (``chol_lower_b64``, the factor's lower triangle) and
    schema 1 (``chol_lower``, all d*d entries, zero above the diagonal); a
    missing ``schema_version`` means 1.  Any other document, a non-finite
    ``mean``, factor or ``logdet``, or a schema 1 factor that is not lower
    triangular raises ``InvalidInputError``."""
    try:
        version = doc.get("schema_version", 1)
    except AttributeError:
        raise InvalidInputError("malformed document: not a JSON object") from None
    if version not in (1, POSTERIOR_SCHEMA_VERSION):
        raise InvalidInputError(f"unknown schema_version {version!r}; this reader knows 1 and 2")
    factor_field = "chol_lower" if version == 1 else "chol_lower_b64"
    try:
        d = doc["d"]
        fields = doc["laplace"] if doc.get("kind") == "surrogate" else doc
        mean = np.asarray(fields["mean"], dtype=float)
        logdet = float(fields["logdet"])
        factor = fields[factor_field]
        if version == 1:
            factor = np.asarray(factor, dtype=float)
    except KeyError as exc:
        raise InvalidInputError(f"missing field {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed document: {exc}") from None
    sizes_ok = isinstance(d, int) and d >= 1 and mean.shape == (d,)
    if version == 1 and not (sizes_ok and factor.shape == (d * d,)):
        raise InvalidInputError(
            f"need d >= 1, d mean values and d*d chol_lower values; got d={d!r}, "
            f"{mean.size} and {factor.size}"
        )
    if not sizes_ok:
        raise InvalidInputError(f"need d >= 1 and d mean values; got d={d!r} and {mean.size}")
    if version != 1:
        factor = _f8_from_b64(factor, d * (d + 1) // 2, factor_field)
    for field, values in (("mean", mean), (factor_field, factor), ("logdet", logdet)):
        if not np.all(np.isfinite(values)):
            raise InvalidInputError(f"{field} holds a non-finite value")
    if version == 1:
        chol = factor.reshape(d, d)
        if np.any(np.triu(chol, 1)):
            raise InvalidInputError("chol_lower has a nonzero entry above the diagonal")
    else:
        chol = np.zeros((d, d))
        chol[np.tri(d, dtype=bool)] = factor
    return GaussianPosterior(mean=mean, chol=chol, logdet=logdet)


def _read_gaussian(path: str) -> GaussianPosterior:
    """The Gaussian of a posterior JSON file; an unusable file raises
    ``InvalidInputError`` naming it."""
    with open(path) as fh:
        try:
            return _gaussian_from_json(json.load(fh))
        except (ValueError, InvalidInputError) as exc:  # JSONDecodeError is a ValueError
            raise InvalidInputError(f"{path} is not a posterior file: {exc}") from None


def _open_input(args) -> LibsvmStream:
    """The input file with its labels as written: the mapping checks and maps
    them, so a label outside the model's domain is an error, not a +1."""
    return parse_libsvm(args.input, d=args.dim)


def cmd_approx(args) -> int:
    term = _approximated_term(get_mapping(args.model, args.bscale))
    approx = chebyshev.fit_chebyshev(term.phi, args.degree, args.radius)
    bound = term.bound(args.radius, args.degree)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "model": args.model,
        "M": approx.M,
        "R": approx.R,
        "b": approx.b.tolist(),
        "c": approx.c.tolist(),
        "sup_err_est": approx.sup_err_est,
        "bound": None
        if bound is None
        else {
            "r": bound.r,
            "C": bound.C,
            "sup_bound": bound.sup_bound,
            "deriv_bound": bound.deriv_bound,
        },
    }
    _write_json(payload, args.out)
    return 0


def cmd_stats_build(args) -> int:
    mapping = get_mapping(args.model, args.bscale)
    stream = _open_input(args)
    stats = build_stats(stream, mapping, args.degree, args.radius)
    save_stats(stats, args.out)
    log.info("accumulated %d records into %s", stats.n, args.out)
    return 0


def cmd_stats_merge(args) -> int:
    merged = load_stats(args.inputs[0])
    for path in args.inputs[1:]:
        merged = merge(merged, load_stats(path))
    save_stats(merged, args.out)
    log.info("merged %d files (%d records) into %s", len(args.inputs), merged.n, args.out)
    return 0


def cmd_fit(args) -> int:
    stats = load_stats(args.stats[0])
    for path in args.stats[1:]:
        stats = merge(stats, load_stats(path))
    prior = PriorSpec.parse(args.prior)
    if stats.mapping.raw_monomial and stats.index_set.M == 2 and args.domain_radius is None:
        post = posterior_lr2(stats, None, prior)
    else:
        post = posterior_general(stats, None, prior, domain_radius=args.domain_radius)
    _write_json(_posterior_to_json(post), args.out)
    return 0


def cmd_baseline(args) -> int:
    mapping = get_mapping(args.model, args.bscale)
    prior = PriorSpec.parse(args.prior)
    stream = _open_input(args)
    if args.method == "laplace":
        post = laplace(mapping, prior, stream)
        _write_json(_posterior_to_json(post), args.out)
        return 0
    if args.method == "sgd":
        theta = sgd(mapping, stream, epochs=args.epochs, eta0=args.eta0, prior=prior, seed=args.seed)
        _write_json(
            {"schema_version": SCHEMA_VERSION, "kind": "point", "theta": theta.tolist()},
            args.out,
        )
        return 0
    config = MalaConfig(iterations=args.iters, chains=args.chains, seed=args.seed)
    out = mala(mapping, prior, stream, config)
    draws_path = args.draws_out or (args.out or "mala") + ".draws.npz"
    np.savez_compressed(draws_path, draws=out.draws)
    _write_json(
        {
            "schema_version": SCHEMA_VERSION,
            "kind": "mala",
            "rhat": None if out.rhat is None else out.rhat.tolist(),
            "accept_rates": out.accept_rates.tolist(),
            "step_sizes": out.step_sizes.tolist(),
            "draws_file": str(draws_path),
            "posterior_mean": out.pooled().mean(axis=0).tolist(),
        },
        args.out,
    )
    return 0


def cmd_eval(args) -> int:
    post = _read_gaussian(args.posterior)
    ref = _read_gaussian(args.reference)
    report = compare_posteriors(post, ref)
    payload = report.as_dict()
    payload["schema_version"] = SCHEMA_VERSION
    if args.test:
        mapping = get_mapping(args.model, args.bscale)
        y, X = _records(mapping, parse_libsvm(args.test, d=post.d))
        payload["test_nll"] = test_nll(mapping, post, (y, X))
        if mapping.label_mode is not None:
            payload["auc"] = roc_auc(np.asarray(X @ post.mean), y)
        hist = inner_product_histogram(mapping, (y, X), post.mean, radius=args.radius)
        payload["histogram"] = {
            "counts": hist.counts.tolist(),
            "edges": hist.edges.tolist(),
            "in_range_fraction": hist.in_range_fraction,
            "radius": hist.radius,
        }
    _write_json(payload, args.out)
    return 0


def cmd_project(args) -> int:
    base = parse_libsvm(args.input, d=args.input_dim)
    spec = ProjectionSpec(seed=args.seed, input_dim=base.d, output_dim=args.dim)
    count = 0
    with open(args.output, "w") as fh:
        for y, X in project(base, spec).batches():
            _write_records(fh, y, X)
            count += len(y)
    log.info("projected %d records from d=%d to d=%d", count, base.d, args.dim)
    return 0


def cmd_synth(args) -> int:
    try:
        theta = [float(v) for v in args.theta.split(",")] if "," in args.theta else float(args.theta)
    except ValueError:
        raise InvalidInputError(f"--theta takes numbers separated by commas, got {args.theta!r}") from None
    synthesize(
        args.model, args.dim, args.n, seed=args.seed, theta_true=theta, path=args.out,
        scale=args.bscale,
    )
    return 0


def _add_common_model_flags(p):
    p.add_argument("--model", required=True, choices=list(MAPPING_FACTORIES))
    p.add_argument("--bscale", type=float, default=1.0,
                   help="scale parameter of the models whose factory takes one")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="passglm",
        description="Polynomial approximate sufficient statistics for GLMs",
    )
    parser.add_argument("--log-level", default="WARNING",
                        choices=["DEBUG", "INFO", "WARNING", "ERROR"])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "approx", help="fit a polynomial approximation of a model's first non-polynomial term"
    )
    _add_common_model_flags(p)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_approx)

    p_stats = sub.add_parser("stats", help="build or merge sufficient statistics")
    stats_sub = p_stats.add_subparsers(dest="stats_command", required=True)

    p = stats_sub.add_parser("build", help="accumulate one shard from a libsvm file")
    p.add_argument("--input", required=True)
    _add_common_model_flags(p)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stats_build)

    p = stats_sub.add_parser("merge", help="merge statistics files")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stats_merge)

    p = sub.add_parser("fit", help="construct the approximate posterior from statistics")
    p.add_argument("--stats", nargs="+", required=True,
                   help="statistics files (merged automatically)")
    p.add_argument("--prior", required=True, help="gaussian:SIGMA2 or flat")
    p.add_argument("--domain-radius", type=float, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("baseline", help="run a reference inference method")
    p.add_argument("--method", required=True, choices=["laplace", "mala", "sgd"])
    p.add_argument("--input", required=True)
    _add_common_model_flags(p)
    p.add_argument("--prior", default="gaussian:4")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--iters", type=int, default=20_000)
    p.add_argument("--chains", type=int, default=3)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--eta0", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--draws-out")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("eval", help="compare two posterior files on held-out data")
    p.add_argument("--posterior", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--test")
    p.add_argument("--model", default="logit", choices=list(MAPPING_FACTORIES))
    p.add_argument("--bscale", type=float, default=1.0)
    p.add_argument("--radius", type=float, default=4.0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("project", help="apply a sparse random projection to a file")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--dim", type=int, required=True, help="output dimension")
    p.add_argument("--input-dim", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("synth", help="generate synthetic model data")
    _add_common_model_flags(p)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta", default="0.5", help="comma-separated or scalar broadcast")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=getattr(logging, args.log_level))
    try:
        return args.func(args)
    except (PassGlmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
