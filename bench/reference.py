"""Independent answers for every op kind, computed with numpy.linalg.

check(op, answer) returns None when `answer` (run_library's format) agrees
with the reference, else a one-line reason. The gates here sit far from
both the drawn inputs and the expected error: ops.py keeps every decision
at least 5% of the scale from its gate, and the library's results carry
relative errors around 1e-13 (1e-9 on the strength bisection fallback).
"""

from __future__ import annotations

import numpy as np

from ops import SHAPES, reference_image

REL = 1e-7      # matrix answers, relative to max(1, |expected|)
# The strength fallback bisects at psd_tol, so it answers within about
# psd_tol * cond(A) <= 1e-9 * 1e2 = 1e-7 of the closed form (relative).
STRENGTH_REL = 1e-5
WITNESS = 1e-8  # slack on t Q <= A, relative to max(1, |A|_2)
RANGE = 1e-6    # range membership cut for the strength reference


def _close(got, want, rel=REL):
    got = np.asarray(got, dtype=float)
    if got.shape != want.shape:
        return f"shape {got.shape} != {want.shape}"
    err = float(np.linalg.norm(got - want))
    if not err <= rel * max(1.0, float(np.linalg.norm(want))):
        return f"error {err:.3e} above {rel:g} relative"
    return None


def _close_up_to_sign(got, want):
    first = _close(got, want)
    return None if first is None or _close(got, -want) is None else first


def _lmin(m):
    return float(np.linalg.eigvalsh(m)[0])


def expected_order(a, b):
    le = _lmin(b - a) > 0.0
    return le, le


def _check_order(op, answer):
    a, b = op.args["A"], op.args["B"]
    le, lt, witness = answer
    want = expected_order(a, b)
    if (bool(le), bool(lt)) != want:
        return f"(le, lt) = {(le, lt)}, expected {want}"
    if le:
        return None if witness is None else "witness returned for a comparable pair"
    if witness is None:
        # A witness t Q <= A exists only for PSD A; after a fix that answers
        # indefinite pairs without one, that answer is complete.
        return None if _lmin(a) < 0.0 else "no witness for an incomparable PSD pair"
    q, t = np.asarray(witness[0], dtype=float), float(witness[1])
    if abs(float(np.linalg.norm(q)) - 1.0) > 1e-9 or not t > 0.0:
        return f"witness not a unit direction with t > 0 (t={t!r})"
    tq = t * np.outer(q, q)
    slack = WITNESS * max(1.0, float(np.max(np.abs(np.linalg.eigvalsh(a)))))
    if _lmin(a - tq) < -slack:
        return f"witness fails t Q <= A (lambda_min {_lmin(a - tq):.3e})"
    if _lmin(b - tq) >= -slack:
        return "witness satisfies t Q <= B"
    return None


def expected_strength(a, x):
    w, v = np.linalg.eigh(a)
    keep = w > RANGE * float(w[-1])
    coef = v.T @ x
    if float(np.linalg.norm(coef[~keep])) > RANGE:
        return 0.0
    return 1.0 / float(np.sum(coef[keep] ** 2 / w[keep]))


def _check_strength(op, answer):
    a = op.args["A"]
    want = expected_strength(a, op.args["x"])
    got = float(answer)
    # Against a kernel direction (want = 0) the error is measured on the
    # scale of A instead.
    scale = abs(want) if want else float(np.linalg.eigvalsh(a)[-1])
    if not abs(got - want) <= STRENGTH_REL * scale:
        return f"strength {got!r}, expected {want!r}"
    return None


def expected_interval(a):
    """The normalization chain's image of X, written out per shape."""
    lk, lc, uk, uc = SHAPES[a["shape"]]
    x, lower, upper = a["X"], a["L"], a["U"]
    n = x.shape[0]
    eye = np.eye(n)
    if lk == "finite" and uk == "finite":
        w, v = np.linalg.eigh(upper - lower)
        g = (v / np.sqrt(w)) @ v.T
        y = g @ (x - lower) @ g
        if lc and uc:
            return y
        if lc or not uc:  # [L, U) and (L, U) -> [0, inf), (0, inf)
            return np.linalg.inv(eye - y) - eye
        return eye - np.linalg.inv(y)  # (L, U] -> (-inf, 0]
    if lk == "finite":
        return x - lower
    if uk == "finite":
        return x - upper if uc else np.linalg.inv(upper - x)
    return x


def expected(op):
    """The reference answer of a matrix-valued op, up to sign for generators."""
    a = op.args
    if op.kind == "apply":
        return reference_image(a["T"], a["X"])
    if op.kind == "compose":
        return a["S"] @ a["R"]
    if op.kind == "invert":
        return np.linalg.inv(a["T"])
    if op.kind == "recover":
        return a["T"]
    return expected_interval(a)


def check(op, answer):
    if op.kind == "order":
        return _check_order(op, answer)
    if op.kind == "strength":
        return _check_strength(op, answer)
    if op.kind in ("compose", "invert", "recover"):
        return _close_up_to_sign(answer, expected(op))
    return _close(answer, expected(op))


def is_known_failure(op, exc_name):
    """The one failure the parent commit is known to have: `order` on an
    indefinite first argument raises NotPSD from strength_witness."""
    return op.kind == "order" and exc_name == "NotPSD" and _lmin(op.args["A"]) < 0.0
