"""The three workloads: each pass is a fixed list of jobs, and each job is
one call into the public liftlab API plus the check of its answer.

Jobs reach the program through module attributes (``hierarchy.sa_membership``
and so on), looked up at call time, so a traced run can wrap them.

uniform-exact  the paper's gap family; identical inputs on every pass.
random-exact   exact jobs on fresh seeded non-uniform inputs every pass.
sdp            the float Lasserre optimizer, bracketed by exact bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from liftlab import decomposition, hierarchy, solvers

import check
import gen

WORKLOADS = ("uniform-exact", "random-exact", "sdp")

# uniform-exact sizes: certificate n=16/t=4, LP n=8/t=3, Lasserre n=8/t=2
CERT_N, CERT_T, CERT_DELTA = 16, 4, Fraction(1, 4)
CERT_VALUE = Fraction(288, 187)       # 16 * alpha(16, 1/10, 4)
CERT_BOUND = Fraction(38, 25)         # (2 - 1/10) / (1 + 1/4)
U_LP_N, U_LP_T, U_LP_VALUE = 8, 3, Fraction(3, 2)
# exactly feasible symmetric points at level 2 whose value beats OPT = 1
REF_U8 = (8, Fraction(3, 20), Fraction(9, 1000))     # value 6/5
REF_U4 = (4, Fraction(31, 100), Fraction(13, 250))   # value 31/25

# random-exact: LP size classes (n, t, instances per pass) and the rest
LP_CLASSES = ((6, 2, 4), (4, 3, 4))
SA_N, SA_T, SA_MIXTURES = 14, 3, 2
LAS_N, LAS_T, LAS_MIXTURES = 10, 3, 2
DECOMP_KS = (1, 2, 1, 2)

# sdp: level 2, four bisection steps over [OPT, LP] and at most 300
# projection sweeps per step, so the work per job barely depends on the seed
SDP_T, SDP_RANDOM_N, SDP_STEPS, SDP_MAX_SWEEPS = 2, 5, 16, 300


@dataclass
class Job:
    kind: str                         # sa_member | lp | lasserre_member | decomp | sdp
    label: str
    call: Callable[[], object]
    check: Callable[[object], "str | None"]
    opt: Fraction | None = None       # sdp jobs: integer optimum
    reference: Fraction | None = None  # sdp jobs: exactly verified lower bound


def _sa_value(label, inst, t, expected=None) -> Job:
    return Job("lp", label, lambda: solvers.sa_value(inst, t),
               lambda got: check.lp_value(got, inst, t, expected))


def _member(kind, label, checker, y, inst, t, accept) -> Job:
    """A membership job; `checker` names a function of liftlab.hierarchy."""
    return Job(kind, label, lambda: getattr(hierarchy, checker)(y, inst, t),
               lambda report: check.verdict(report, accept))


def uniform_exact() -> list[Job]:
    eps = gen.EPS
    cert_inst = gen.uniform_instance(CERT_N)
    alpha3 = gen.certificate_alpha(CERT_N, eps, CERT_T - 1)
    too_big = gen.certificate_vector(CERT_N, alpha3, CERT_T)
    n8, y1, y2 = REF_U8
    return [
        Job("sa_member", f"certificate n={CERT_N} t={CERT_T}",
            lambda: hierarchy.verify_gap_certificate(CERT_N, eps, CERT_T, CERT_DELTA),
            lambda got: check.certificate(got, CERT_VALUE, CERT_BOUND)),
        _member("sa_member", f"level-{CERT_T - 1} alpha at n={CERT_N} t={CERT_T}",
                "sa_membership", too_big, cert_inst, CERT_T, False),
        _sa_value(f"sa_value uniform n={U_LP_N} t={U_LP_T}",
                  gen.uniform_instance(U_LP_N), U_LP_T, U_LP_VALUE),
        _member("lasserre_member", f"6/5 point n={n8} t=2",
                "lasserre_membership",
                gen.symmetric_point(n8, 4, y1, y2), gen.uniform_instance(n8), 2, True),
    ]


def random_exact(seed: int, index: int) -> list[Job]:
    jobs = []
    rng = gen.rng_for(seed, index, "lp")
    for n, t, count in LP_CLASSES:
        for _ in range(count):
            jobs.append(_sa_value(f"sa_value random n={n} t={t}",
                                  gen.random_instance(rng, n), t))

    rng = gen.rng_for(seed, index, "sa")
    inst = gen.random_instance(rng, SA_N)
    mixes = [gen.mixture(rng, inst, SA_T, 4) for _ in range(SA_MIXTURES)]
    for y in mixes:
        jobs.append(_member("sa_member", f"mixture n={SA_N} t={SA_T}",
                            "sa_membership", y, inst, SA_T, True))
    jobs.append(_member("sa_member", f"broken mixture n={SA_N} t={SA_T}",
                        "sa_membership", gen.break_pair(mixes[0]),
                        inst, SA_T, False))

    rng = gen.rng_for(seed, index, "lasserre")
    for _ in range(LAS_MIXTURES):
        inst = gen.random_instance(rng, LAS_N)
        jobs.append(_member("lasserre_member", f"mixture n={LAS_N} t={LAS_T}",
                            "lasserre_membership",
                            gen.mixture(rng, inst, 2 * LAS_T, 4), inst, LAS_T, True))

    rng = gen.rng_for(seed, index, "decomp")
    t = 3
    for k in DECOMP_KS:
        d_inst, y, s_mask, masses = gen.decomposition_case(rng, k, t=t)

        def call(d_inst=d_inst, y=y, s_mask=s_mask, k=k):
            res = decomposition.decompose(y, d_inst, s_mask, k, t)
            return res, decomposition.verify_decomposition(res, y, d_inst, t, k)

        jobs.append(Job("decomp", f"decompose n=6 t={t} k={k}", call,
                        lambda got, y=y, masses=masses, k=k:
                        check.decomposition(got[0], got[1], y, masses, t, k)))
    return jobs


def _sdp(label, inst, reference=None) -> list[Job]:
    """Lower estimate of the level-2 Lasserre value plus the exact SA upper bound."""
    opt, lp = gen.opt_value(inst), gen.lp_bound(inst)
    # the optimizer bisects [float(OPT), float(LP)]; the margin keeps float
    # rounding from adding a fifth step
    tol = (float(lp) - float(opt)) / SDP_STEPS * (1 + 1e-9)
    return [
        Job("sdp", f"lasserre_value {label} t={SDP_T}",
            lambda: solvers.lasserre_value(inst, SDP_T, tol=tol, max_sweeps=SDP_MAX_SWEEPS),
            lambda est: check.sdp_window(est, opt, check.sa_lp_reference(inst, SDP_T)),
            opt=opt, reference=reference),
        _sa_value(f"sa_value {label} t={SDP_T}", inst, SDP_T),
    ]


def sdp(seed: int, index: int) -> list[Job]:
    n, y1, y2 = REF_U4
    inst = gen.uniform_instance(n)
    point = gen.symmetric_point(n, 2 * SDP_T, y1, y2)
    rng = gen.rng_for(seed, index, "sdp")
    return [
        *_sdp(f"uniform n={n}", inst, reference=n * y1),
        _member("lasserre_member", f"31/25 point n={n} t={SDP_T}",
                "lasserre_membership", point, inst, SDP_T, True),
        # La_t lies inside SA_t, so the same point must pass the SA check
        _member("sa_member", f"31/25 point in SA n={n} t={SDP_T}",
                "sa_membership", point, inst, SDP_T, True),
        *_sdp(f"random n={SDP_RANDOM_N}", gen.sdp_instance(rng, SDP_RANDOM_N)),
    ]


def build(workload: str, seed: int, index: int) -> list[Job]:
    """The job list of pass `index`; pass 0 is built during set-up."""
    if workload == "uniform-exact":
        return uniform_exact()
    if workload == "random-exact":
        return random_exact(seed, index)
    if workload == "sdp":
        return sdp(seed, index)
    raise ValueError(f"unknown workload {workload!r}")
