"""In-memory span tracer that wraps the program's public functions from outside.

``Tracer.install`` replaces functions by module attribute -- the names that
``inference``, ``likelihood`` and ``ancillary`` look up at call time -- with
wrappers that record one span per call: name, start, end, parent span and
op id, plus the exception type if the call raised.  Nothing under ``src/``
changes; ``uninstall`` restores the originals.  A wrapped name the program
no longer has is skipped, and the metrics that need it read 0.

``layer_metrics`` turns the spans of a run into the per-layer metrics.  A
span's self time is its duration minus the durations of its direct
children (calls are nested and single-threaded, so children never overlap).
"""

from __future__ import annotations

import gzip
import time
from collections import defaultdict

from elliplrt import ancillary, inference, likelihood

OP = "op"
RUN_TEST = "inference.run_test"
FIT_HAT = "inference.fit_hat"
FIT_TILDE = "inference.fit_tilde"
NEWTON = "inference.newton"
EVALUATE = "model.evaluate"
INFO = "likelihood.score_info_J"
SCORE = "likelihood.score_info_noJ"
DRAW = "montecarlo.draw"
SOLVES = ("linalg.chol_solve", "linalg.chol_inverse")
ANC_BUILD = "ancillary.build_ancillary"
ANC_GRAD = "ancillary.sample_space_gradients"
ANC_DT = "ancillary.doubletilde_info"
ADJUST = ("inference.gamma_factor", "inference.rho_factor",
          "inference.adjusted_statistics", "inference.p_values")

# span record layout
NAME, START, END, PARENT, OPID, ERROR, EXTRA = range(7)


def _arg(args, kwargs, pos, key, default):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list = []
        self._patches: list = []
        self._last_si = None  # ScoreInfo of the latest evaluation, None after a failed one

    # -- recording -------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span; returns (result, record)."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, "", 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            return fn(*args, **kwargs), rec
        except BaseException as exc:
            rec[ERROR] = type(exc).__name__
            raise
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, owner, attr: str, wrapper_of):
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        setattr(owner, attr, wrapper_of(fn))
        self._patches.append((owner, attr, fn))

    def _simple(self, name):
        def wrapper_of(fn):
            def wrapper(*args, **kwargs):
                return self.span(name, fn, *args, **kwargs)[0]
            return wrapper
        return wrapper_of

    # -- installation ----------------------------------------------------

    def install(self, setup) -> None:
        """Wrap the layer boundaries; ``setup`` is the run's ``_Setup``."""
        tr = self

        def evaluate_of(fn):
            def wrapper(*args, **kwargs):
                tr._last_si = None
                return tr.span(EVALUATE, fn, *args, **kwargs)[0]
            return wrapper

        def score_info_of(fn):
            def wrapper(*args, **kwargs):
                name = INFO if _arg(args, kwargs, 2, "want_info", True) else SCORE
                si = tr.span(name, fn, *args, **kwargs)[0]
                tr._last_si = si
                return si
            return wrapper

        def fit_of(fn):
            def wrapper(*args, **kwargs):
                restricted = _arg(args, kwargs, 3, "restriction", None) is not None
                return tr.span(FIT_TILDE if restricted else FIT_HAT, fn, *args, **kwargs)[0]
            return wrapper

        def newton_of(fn):
            # EXTRA = Newton iterates whose J was used: the start point plus
            # every accepted step.  _newton counts a final rejected step in its
            # iterations; that step is recognized by the returned ScoreInfo
            # not being the latest evaluation.
            def wrapper(*args, **kwargs):
                out, rec = tr.span(NEWTON, fn, *args, **kwargs)
                _, _, si, _, iters = out
                rec[EXTRA] = 1 + iters - (0 if tr._last_si is si else 1)
                return out
            return wrapper

        self._wrap(inference, "run_test", self._simple(RUN_TEST))
        self._wrap(inference, "fit", fit_of)
        self._wrap(inference, "_newton", newton_of)
        for owner in (inference, ancillary):
            self._wrap(owner, "evaluate", evaluate_of)
        self._wrap(inference, "score_info", score_info_of)
        for owner in (likelihood, ancillary):
            for attr, name in zip(("chol_solve", "chol_inverse"), SOLVES):
                self._wrap(owner, attr, self._simple(name))
        for name in (ANC_BUILD, ANC_GRAD, ANC_DT, *ADJUST):
            self._wrap(inference, name.split(".")[1], self._simple(name))
        self._wrap(setup, "draw_dataset", self._simple(DRAW))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """Spans as gzip CSV: id,name,start_s,end_s,parent,op,error,extra."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,start_s,end_s,parent,op,error,extra\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[NAME]},{s[START] - t0:.9f},{s[END] - t0:.9f},"
                         f"{s[PARENT]},{s[OPID]},{s[ERROR]},{s[EXTRA]}\n")


def layer_metrics(spans, n_ops: int) -> dict:
    """Per-layer metrics of one traced run over n_ops ops.

    ``*_per_op`` and ``*_ms`` figures are totals over the run divided by
    n_ops (``montecarlo.draw_ms`` is per draw); shares are ratios of counts
    or of times.  See METRICS.md for each definition.
    """
    child = [0.0] * len(spans)
    in_fit = [False] * len(spans)
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0:
            child[p] += s[END] - s[START]
            in_fit[i] = in_fit[p] or spans[p][NAME] in (FIT_HAT, FIT_TILDE)
    calls = defaultdict(int)
    total = defaultdict(float)
    self_t = defaultdict(float)
    for i, s in enumerate(spans):
        d = s[END] - s[START]
        calls[s[NAME]] += 1
        total[s[NAME]] += d
        self_t[s[NAME]] += d - child[i]

    nonspd = sum(1 for s in spans if s[NAME] == EVALUATE and s[ERROR] == "NonSPDError")
    fit_evals = sum(1 for i, s in enumerate(spans) if s[NAME] == EVALUATE and in_fit[i])
    lbfgs = sum(1 for i, s in enumerate(spans) if s[NAME] == SCORE and in_fit[i])
    useful = sum(s[EXTRA] for s in spans if s[NAME] == NEWTON)
    fits = calls[FIT_HAT] + calls[FIT_TILDE]
    op_time = total[OP]

    def per_op(x):
        return x / n_ops

    def ms(x):
        return 1e3 * x / n_ops

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "model.evaluate_calls_per_op": per_op(calls[EVALUATE]),
        "model.evaluate_self_ms": ms(self_t[EVALUATE]),
        "model.nonspd_share": ratio(nonspd, calls[EVALUATE]),
        "likelihood.info_calls_per_op": per_op(calls[INFO]),
        "likelihood.score_calls_per_op": per_op(calls[SCORE]),
        "likelihood.info_self_ms": ms(self_t[INFO]),
        "linalg.solve_calls_per_op": per_op(sum(calls[n] for n in SOLVES)),
        "linalg.self_share": ratio(sum(self_t[n] for n in SOLVES), op_time),
        "inference.fit_hat_ms": ms(total[FIT_HAT]),
        "inference.fit_tilde_ms": ms(total[FIT_TILDE]),
        "inference.evals_per_fit": ratio(fit_evals, fits),
        "inference.lbfgs_evals_per_op": per_op(lbfgs),
        "inference.info_useful_share": ratio(useful, calls[INFO]),
        "ancillary.build_ms": ms(total[ANC_BUILD]),
        "ancillary.gradients_ms": ms(total[ANC_GRAD]),
        "ancillary.doubletilde_ms": ms(total[ANC_DT]),
        "inference.adjust_ms": ms(sum(total[n] for n in ADJUST)),
        "montecarlo.draw_ms": 1e3 * ratio(total[DRAW], calls[DRAW]),
    }
